//! Output checks: FNV-1a/64 digests of report bytes against a pinned table.
//!
//! `pinned.txt` holds one `<name> <16 hex digits>` pair per line; `#` starts
//! a comment. Regenerate it with `--emit-digests` only when a change is
//! meant to alter report bytes, and say so in that change.

use std::collections::BTreeMap;

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned digest table.
pub struct Pinned(BTreeMap<String, u64>);

impl Pinned {
    pub fn load() -> Pinned {
        Pinned::parse(include_str!("../pinned.txt")).expect("pinned.txt is well-formed")
    }

    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut map = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (name, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: expected '<name> <digest>'", no + 1))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("line {}: bad digest: {e}", no + 1))?;
            if map.insert(name.to_string(), digest).is_some() {
                return Err(format!("line {}: duplicate name {name}", no + 1));
            }
        }
        Ok(Pinned(map))
    }

    /// `Ok` when `bytes` hash to the pinned digest for `name`; the error
    /// names the cell.
    pub fn check(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        match self.0.get(name) {
            None => Err(format!("{name}: no pinned digest")),
            Some(&want) => {
                let got = fnv1a64(bytes);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{name}: digest {got:016x}, pinned {want:016x}"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_flipped_byte_fails_the_check_and_names_the_cell() {
        let report = br#"{"model":"resnet-50","total_latency_ms":1.25}"#.to_vec();
        let table = format!("# comment\nladder/resnet-50 {:016x}\n", fnv1a64(&report));
        let pinned = Pinned::parse(&table).unwrap();
        assert!(pinned.check("ladder/resnet-50", &report).is_ok());
        for i in [0, report.len() / 2, report.len() - 1] {
            let mut flipped = report.clone();
            flipped[i] ^= 0x01;
            let err = pinned.check("ladder/resnet-50", &flipped).unwrap_err();
            assert!(err.starts_with("ladder/resnet-50:"), "{err}");
        }
        assert!(pinned.check("ladder/vit-base", &report).is_err());
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(Pinned::parse("name-without-digest\n").is_err());
        assert!(Pinned::parse("a 00zz\n").is_err());
        assert!(Pinned::parse("a 01\na 02\n").is_err());
    }

    #[test]
    fn shipped_table_parses() {
        Pinned::load();
    }
}
