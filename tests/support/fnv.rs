//! 64-bit FNV-1a and a table-style checker for the checksum suites.
//!
//! `fixture_checksums.rs` pins the seeded inputs and
//! `selection_checksum.rs` pins what the models make of them; both hash
//! with this one function and report drift the same way.
//!
//! Include with `#[path = "support/fnv.rs"] mod fnv;` — this file is not
//! a test target itself.
#![allow(dead_code)] // each suite uses a different slice of the helpers

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent labels cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Compares `(label, got, want)` rows and, on any mismatch, fails with
/// every row so the whole table can be inspected at once.
pub fn check(rows: &[(String, u64, u64)]) {
    let bad: Vec<_> = rows.iter().filter(|(_, got, want)| got != want).collect();
    assert!(
        bad.is_empty(),
        "{} of {} checksums drifted:\n{}",
        bad.len(),
        rows.len(),
        rows.iter()
            .map(|(label, got, want)| format!("{label}: got {got:#018x}, want {want:#018x}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
