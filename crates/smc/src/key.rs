//! SMC key codes: the 4-character alphanumeric identifiers of Apple's
//! System Management Controller key/value store.

/// A four-character SMC key (e.g. `PHPC`, `TC0P`).
///
/// # Examples
///
/// ```
/// use psc_smc::key::SmcKey;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let key: SmcKey = "PHPC".parse()?;
/// assert_eq!(key.to_string(), "PHPC");
/// assert!(key.is_power_key());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SmcKey([u8; 4]);

impl SmcKey {
    /// Build from exactly four printable ASCII bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseKeyError`] if any byte is outside the printable ASCII
    /// range.
    pub fn new(code: [u8; 4]) -> Result<Self, ParseKeyError> {
        if code.iter().all(|&b| (0x20..=0x7E).contains(&b)) {
            Ok(Self(code))
        } else {
            Err(ParseKeyError)
        }
    }

    /// The raw four bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 4] {
        &self.0
    }

    /// Whether the key follows the power-key naming convention the paper
    /// uses to shortlist candidates (§3.2): an initial capital `P`.
    #[must_use]
    pub fn is_power_key(&self) -> bool {
        self.0[0] == b'P'
    }

    /// The big-endian `u32` wire representation used by the real
    /// `AppleSMC` user-client protocol.
    #[must_use]
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Inverse of [`Self::to_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseKeyError`] if the decoded bytes are not printable.
    pub fn from_u32(raw: u32) -> Result<Self, ParseKeyError> {
        Self::new(raw.to_be_bytes())
    }
}

impl core::fmt::Display for SmcKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for &b in &self.0 {
            write!(f, "{}", b as char)?;
        }
        Ok(())
    }
}

impl core::str::FromStr for SmcKey {
    type Err = ParseKeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        if bytes.len() != 4 {
            return Err(ParseKeyError);
        }
        Self::new([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

/// Error parsing an SMC key from text or wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseKeyError;

impl core::fmt::Display for ParseKeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SMC keys are exactly four printable ASCII characters")
    }
}

impl std::error::Error for ParseKeyError {}

/// Shorthand constructor for compile-time-known keys.
///
/// # Panics
///
/// Panics if `s` is not a valid key — intended for literals only.
#[must_use]
pub fn key(s: &str) -> SmcKey {
    s.parse().unwrap_or_else(|_| panic!("invalid SMC key literal {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for name in ["PHPC", "PDTR", "PSTR", "TC0P", "F0Ac", "B0FC"] {
            let k: SmcKey = name.parse().unwrap();
            assert_eq!(k.to_string(), name);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        assert!("PHP".parse::<SmcKey>().is_err());
        assert!("PHPCX".parse::<SmcKey>().is_err());
        assert!("".parse::<SmcKey>().is_err());
    }

    #[test]
    fn rejects_non_printable() {
        assert!(SmcKey::new([0x00, b'A', b'B', b'C']).is_err());
        assert!(SmcKey::new([b'A', b'B', b'C', 0x7F]).is_err());
    }

    #[test]
    fn power_key_convention() {
        assert!(key("PHPC").is_power_key());
        assert!(key("PSTR").is_power_key());
        assert!(!key("TC0P").is_power_key());
        assert!(!key("pHPC").is_power_key(), "lowercase p is not the convention");
    }

    #[test]
    fn u32_roundtrip_matches_wire_order() {
        let k = key("PHPC");
        assert_eq!(k.to_u32(), u32::from_be_bytes(*b"PHPC"));
        assert_eq!(SmcKey::from_u32(k.to_u32()).unwrap(), k);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(key("PDTR") < key("PHPC"));
        assert!(key("PHPC") < key("PHPS"));
    }

    #[test]
    #[should_panic(expected = "invalid SMC key literal")]
    fn literal_helper_panics_on_bad_input() {
        let _ = key("nope!");
    }
}
