//! SMC value types and their wire encodings.
//!
//! The real SMC stores each key's value with a declared type code
//! (`flt `, `ui8 `, `sp78`, …). We implement the subset our sensor
//! population uses, with byte-exact encode/decode so the IOKit-style
//! client can ship raw bytes like `IOConnectCallStructMethod` does.

/// SMC data type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmcDataType {
    /// `flt `: IEEE-754 single-precision, little-endian.
    Flt,
    /// `ui8 `: unsigned 8-bit.
    Ui8,
    /// `ui16`: unsigned 16-bit big-endian.
    Ui16,
    /// `ui32`: unsigned 32-bit big-endian.
    Ui32,
    /// `sp78`: signed fixed-point 7.8 (big-endian, 2 bytes) — temperatures.
    Sp78,
    /// `fpe2`: unsigned fixed-point 14.2 (big-endian, 2 bytes) — fan RPM.
    Fpe2,
    /// `flag`: boolean byte.
    Flag,
}

impl SmcDataType {
    /// The 4-character type code string the SMC reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SmcDataType::Flt => "flt ",
            SmcDataType::Ui8 => "ui8 ",
            SmcDataType::Ui16 => "ui16",
            SmcDataType::Ui32 => "ui32",
            SmcDataType::Sp78 => "sp78",
            SmcDataType::Fpe2 => "fpe2",
            SmcDataType::Flag => "flag",
        }
    }

    /// Parse a type code string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnknownType`] for unrecognized codes.
    pub fn from_code(code: &str) -> Result<Self, CodecError> {
        match code {
            "flt " => Ok(SmcDataType::Flt),
            "ui8 " => Ok(SmcDataType::Ui8),
            "ui16" => Ok(SmcDataType::Ui16),
            "ui32" => Ok(SmcDataType::Ui32),
            "sp78" => Ok(SmcDataType::Sp78),
            "fpe2" => Ok(SmcDataType::Fpe2),
            "flag" => Ok(SmcDataType::Flag),
            _ => Err(CodecError::UnknownType),
        }
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn size(self) -> usize {
        match self {
            SmcDataType::Flt | SmcDataType::Ui32 => 4,
            SmcDataType::Ui16 | SmcDataType::Sp78 | SmcDataType::Fpe2 => 2,
            SmcDataType::Ui8 | SmcDataType::Flag => 1,
        }
    }

    /// Encode a numeric value into this type's wire format.
    ///
    /// Values are clamped/quantized into the representable range (the SMC
    /// saturates rather than erroring).
    #[must_use]
    pub fn encode(self, value: f64) -> Vec<u8> {
        // `wire_round` leaves a value every cast below holds exactly.
        let v = self.wire_round(value);
        let bytes: &[u8] = match self {
            SmcDataType::Flt => &(v as f32).to_le_bytes(),
            SmcDataType::Ui8 | SmcDataType::Flag => &[v as u8],
            SmcDataType::Ui16 => &(v as u16).to_be_bytes(),
            SmcDataType::Ui32 => &(v as u32).to_be_bytes(),
            SmcDataType::Sp78 => &((v * 256.0) as i16).to_be_bytes(),
            SmcDataType::Fpe2 => &((v * 4.0) as u16).to_be_bytes(),
        };
        bytes.to_vec()
    }

    /// The value a reader decodes after a wire round trip — exactly
    /// `decode(&encode(value))`, computed without the bytes: the type's
    /// saturation and quantisation. The IOKit read path returns this.
    #[must_use]
    pub(crate) fn wire_round(self, value: f64) -> f64 {
        match self {
            SmcDataType::Flt => f64::from(value as f32),
            // The integer casts matter: they send NaN and -0.0 to +0.0.
            SmcDataType::Ui8 => f64::from(value.clamp(0.0, 255.0).round() as u8),
            SmcDataType::Ui16 => f64::from(value.clamp(0.0, 65_535.0).round() as u16),
            SmcDataType::Ui32 => f64::from(value.clamp(0.0, u32::MAX as f64).round() as u32),
            SmcDataType::Sp78 => {
                let fixed = (value * 256.0).clamp(i16::MIN as f64, i16::MAX as f64).round() as i16;
                f64::from(fixed) / 256.0
            }
            SmcDataType::Fpe2 => f64::from((value * 4.0).clamp(0.0, 65_535.0).round() as u16) / 4.0,
            SmcDataType::Flag => f64::from(u8::from(value != 0.0)),
        }
    }

    /// Decode wire bytes into a numeric value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::WrongSize`] if `bytes` has the wrong length.
    pub fn decode(self, bytes: &[u8]) -> Result<f64, CodecError> {
        if bytes.len() != self.size() {
            return Err(CodecError::WrongSize { expected: self.size(), got: bytes.len() });
        }
        // The size check above leaves 1, 2 or 4 bytes; pad them to a word.
        let mut word = [0u8; 4];
        word[..bytes.len()].copy_from_slice(bytes);
        let [b0, b1, ..] = word;
        Ok(match self {
            SmcDataType::Flt => f64::from(f32::from_le_bytes(word)),
            SmcDataType::Ui8 => f64::from(b0),
            SmcDataType::Ui16 => f64::from(u16::from_be_bytes([b0, b1])),
            SmcDataType::Ui32 => f64::from(u32::from_be_bytes(word)),
            SmcDataType::Sp78 => f64::from(i16::from_be_bytes([b0, b1])) / 256.0,
            SmcDataType::Fpe2 => f64::from(u16::from_be_bytes([b0, b1])) / 4.0,
            SmcDataType::Flag => f64::from(b0 != 0),
        })
    }
}

/// A typed SMC value (numeric interpretation plus wire type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmcValue {
    /// Declared wire type.
    pub data_type: SmcDataType,
    /// Numeric interpretation.
    pub value: f64,
}

impl SmcValue {
    /// Construct a typed value.
    #[must_use]
    pub fn new(data_type: SmcDataType, value: f64) -> Self {
        Self { data_type, value }
    }

    /// Wire-encode.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.data_type.encode(self.value)
    }

    /// Decode from wire bytes with a known type.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::WrongSize`].
    pub fn from_bytes(data_type: SmcDataType, bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(Self { data_type, value: data_type.decode(bytes)? })
    }
}

/// Wire codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Byte length did not match the type's encoded size.
    WrongSize {
        /// Expected number of bytes.
        expected: usize,
        /// Received number of bytes.
        got: usize,
    },
    /// Unrecognized type code string.
    UnknownType,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::WrongSize { expected, got } => {
                write!(f, "wrong SMC value size: expected {expected} bytes, got {got}")
            }
            CodecError::UnknownType => write!(f, "unknown SMC type code"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flt_roundtrip() {
        for v in [0.0, 1.5, -2.25, 4.125, 1234.5] {
            let bytes = SmcDataType::Flt.encode(v);
            assert_eq!(bytes.len(), 4);
            assert_eq!(SmcDataType::Flt.decode(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn sp78_temperature_roundtrip() {
        for v in [0.0, 24.5, 99.0, -10.25] {
            let bytes = SmcDataType::Sp78.encode(v);
            assert_eq!(bytes.len(), 2);
            let decoded = SmcDataType::Sp78.decode(&bytes).unwrap();
            assert!((decoded - v).abs() < 1.0 / 256.0, "{v} -> {decoded}");
        }
    }

    #[test]
    fn fpe2_fan_rpm_roundtrip() {
        let bytes = SmcDataType::Fpe2.encode(1850.25);
        assert_eq!(SmcDataType::Fpe2.decode(&bytes).unwrap(), 1850.25);
    }

    #[test]
    fn integer_types_clamp() {
        assert_eq!(SmcDataType::Ui8.decode(&SmcDataType::Ui8.encode(300.0)).unwrap(), 255.0);
        assert_eq!(SmcDataType::Ui8.decode(&SmcDataType::Ui8.encode(-5.0)).unwrap(), 0.0);
        assert_eq!(
            SmcDataType::Ui16.decode(&SmcDataType::Ui16.encode(70_000.0)).unwrap(),
            65_535.0
        );
    }

    #[test]
    fn flag_roundtrip() {
        assert_eq!(SmcDataType::Flag.decode(&SmcDataType::Flag.encode(1.0)).unwrap(), 1.0);
        assert_eq!(SmcDataType::Flag.decode(&SmcDataType::Flag.encode(0.0)).unwrap(), 0.0);
    }

    #[test]
    fn wrong_size_rejected() {
        let err = SmcDataType::Flt.decode(&[0u8; 2]).unwrap_err();
        assert_eq!(err, CodecError::WrongSize { expected: 4, got: 2 });
        assert!(err.to_string().contains("expected 4"));
    }

    #[test]
    fn type_code_roundtrip() {
        for t in [
            SmcDataType::Flt,
            SmcDataType::Ui8,
            SmcDataType::Ui16,
            SmcDataType::Ui32,
            SmcDataType::Sp78,
            SmcDataType::Fpe2,
            SmcDataType::Flag,
        ] {
            assert_eq!(SmcDataType::from_code(t.code()).unwrap(), t);
            assert_eq!(t.code().len(), 4, "type codes are 4 chars");
        }
        assert_eq!(SmcDataType::from_code("zzzz"), Err(CodecError::UnknownType));
    }

    #[test]
    fn wire_encoding_sizes_match_types() {
        for t in [
            SmcDataType::Flt,
            SmcDataType::Ui8,
            SmcDataType::Ui16,
            SmcDataType::Ui32,
            SmcDataType::Sp78,
            SmcDataType::Fpe2,
            SmcDataType::Flag,
        ] {
            for v in [-300.5, -1.0, 0.0, 0.4, 1.0, 24.5, 1850.25, 70_000.0, 5.0e9] {
                assert_eq!(t.encode(v).len(), t.size(), "{t:?} {v}");
            }
        }
        assert_eq!(&SmcDataType::Ui16.encode(258.0)[..], &[1, 2], "big-endian");
        assert_eq!(&SmcDataType::Flt.encode(1.0)[..], &1.0f32.to_le_bytes(), "little-endian");
    }

    /// The byte-level encoder `encode` replaced, kept as the reference.
    fn reference_encode(t: SmcDataType, value: f64) -> Vec<u8> {
        match t {
            SmcDataType::Flt => (value as f32).to_le_bytes().to_vec(),
            SmcDataType::Ui8 => vec![value.clamp(0.0, 255.0).round() as u8],
            SmcDataType::Ui16 => (value.clamp(0.0, 65_535.0).round() as u16).to_be_bytes().to_vec(),
            SmcDataType::Ui32 => {
                (value.clamp(0.0, u32::MAX as f64).round() as u32).to_be_bytes().to_vec()
            }
            SmcDataType::Sp78 => {
                let fixed = (value * 256.0).clamp(i16::MIN as f64, i16::MAX as f64).round() as i16;
                fixed.to_be_bytes().to_vec()
            }
            SmcDataType::Fpe2 => {
                ((value * 4.0).clamp(0.0, 65_535.0).round() as u16).to_be_bytes().to_vec()
            }
            SmcDataType::Flag => vec![u8::from(value != 0.0)],
        }
    }

    #[test]
    fn wire_round_equals_decode_of_encode_bitwise() {
        let values = [
            -300.5,
            -1.0,
            -0.0,
            0.0,
            0.4,
            0.5,
            1.0,
            2.375,
            24.5,
            127.998,
            1850.25,
            4382.0,
            70_000.0,
            5.0e9,
            1.0e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for t in [
            SmcDataType::Flt,
            SmcDataType::Ui8,
            SmcDataType::Ui16,
            SmcDataType::Ui32,
            SmcDataType::Sp78,
            SmcDataType::Fpe2,
            SmcDataType::Flag,
        ] {
            let mut x = 0.123_456_789f64;
            for v in values.into_iter().chain((0..200).map(|_| {
                x = (x * 997.0 + 0.271).fract();
                (x - 0.3) * 90.0
            })) {
                let reference = reference_encode(t, v);
                assert_eq!(&t.encode(v)[..], &reference[..], "{t:?} {v}");
                let decoded = t.decode(&reference).unwrap();
                assert_eq!(t.wire_round(v).to_bits(), decoded.to_bits(), "{t:?} {v}");
            }
        }
    }

    #[test]
    fn value_wrapper_roundtrip() {
        let v = SmcValue::new(SmcDataType::Flt, 3.375);
        let bytes = v.to_bytes();
        assert_eq!(SmcValue::from_bytes(SmcDataType::Flt, &bytes).unwrap(), v);
    }
}
