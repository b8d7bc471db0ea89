//! The extended PIM instruction set and its binary encoding.
//!
//! The paper's driver library "issues extended instruction for PIM \[3\]",
//! which the hardware control path translates into DDR commands plus
//! mode-register writes (§5, Fig. 4). This module defines those
//! instructions and a compact binary wire format: row-granular
//! instructions encode to words, the words decode back to instructions
//! (rejecting truncated streams, unknown opcodes, ill-formed headers and
//! out-of-range addresses), and a decoded stream executes on the engine.
//!
//! # Wire format
//!
//! Each instruction is a header word followed by one packed row address
//! per operand and one for the destination:
//!
//! ```text
//! header  [63:56] opcode   (OR=1, AND=2, XOR=3, NOT=4)
//!         [55:40] operand count
//!         [39:0]  column count (bits per row segment)
//! addr    [39:0]  packed row address (channel·rank·bank·subarray·row)
//! ```

use crate::RuntimeError;
use pinatubo_core::{BitwiseOp, PimError, PinatuboEngine};
use pinatubo_mem::{MemGeometry, RowAddr};
use std::error::Error;
use std::fmt;

/// One extended PIM instruction, at row granularity (the driver segments
/// long bit-vectors before encoding).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PimInstruction {
    /// The bulk operation.
    pub op: BitwiseOp,
    /// Operand rows.
    pub operands: Vec<RowAddr>,
    /// Destination row.
    pub dst: RowAddr,
    /// Columns (bits) covered.
    pub cols: u64,
}

impl PimInstruction {
    /// Executes the instruction on an engine.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn execute(
        &self,
        engine: &mut PinatuboEngine,
    ) -> Result<pinatubo_core::OpOutcome, PimError> {
        engine.bulk_op(self.op, &self.operands, self.dst, self.cols)
    }

    /// Encodes to the binary wire format.
    #[must_use]
    pub fn encode(&self, geometry: &MemGeometry) -> Vec<u64> {
        let opcode: u64 = match self.op {
            BitwiseOp::Or => 1,
            BitwiseOp::And => 2,
            BitwiseOp::Xor => 3,
            BitwiseOp::Not => 4,
        };
        let header =
            (opcode << 56) | ((self.operands.len() as u64 & 0xFFFF) << 40) | (self.cols & COL_MASK);
        let mut words = Vec::with_capacity(self.operands.len() + 2);
        words.push(header);
        for row in &self.operands {
            words.push(row.to_linear(geometry));
        }
        words.push(self.dst.to_linear(geometry));
        words
    }

    /// Decodes one instruction from the front of `words`, returning it and
    /// the number of words consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated streams, unknown opcodes,
    /// ill-formed headers or out-of-range addresses.
    pub fn decode(
        geometry: &MemGeometry,
        words: &[u64],
    ) -> Result<(PimInstruction, usize), DecodeError> {
        let &header = words.first().ok_or(DecodeError::Truncated { needed: 1 })?;
        let op = match header >> 56 {
            1 => BitwiseOp::Or,
            2 => BitwiseOp::And,
            3 => BitwiseOp::Xor,
            4 => BitwiseOp::Not,
            other => {
                return Err(DecodeError::UnknownOpcode {
                    opcode: other as u8,
                })
            }
        };
        let operand_count = ((header >> 40) & 0xFFFF) as usize;
        let cols = header & COL_MASK;
        let arity_ok = match op {
            BitwiseOp::Not => operand_count == 1,
            BitwiseOp::Or | BitwiseOp::And | BitwiseOp::Xor => operand_count >= 2,
        };
        if !arity_ok || cols == 0 || cols > geometry.logical_row_bits() {
            return Err(DecodeError::IllFormed {
                opcode: (header >> 56) as u8,
                operands: operand_count,
                cols,
            });
        }
        let needed = operand_count + 2;
        if words.len() < needed {
            return Err(DecodeError::Truncated { needed });
        }
        let decode_addr = |word: u64| -> Result<RowAddr, DecodeError> {
            if word >= geometry.total_rows() {
                return Err(DecodeError::AddressOutOfRange { linear: word });
            }
            Ok(RowAddr::from_linear(geometry, word))
        };
        let operands = words[1..=operand_count]
            .iter()
            .copied()
            .map(decode_addr)
            .collect::<Result<Vec<_>, _>>()?;
        let dst = decode_addr(words[operand_count + 1])?;
        Ok((
            PimInstruction {
                op,
                operands,
                dst,
                cols,
            },
            needed,
        ))
    }
}

/// 40-bit column-count field.
const COL_MASK: u64 = (1 << 40) - 1;

/// Encodes a whole instruction stream.
#[must_use]
pub fn encode_stream(geometry: &MemGeometry, instructions: &[PimInstruction]) -> Vec<u64> {
    instructions
        .iter()
        .flat_map(|i| i.encode(geometry))
        .collect()
}

/// Decodes a whole instruction stream.
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered.
pub fn decode_stream(
    geometry: &MemGeometry,
    mut words: &[u64],
) -> Result<Vec<PimInstruction>, DecodeError> {
    let mut out = Vec::new();
    while !words.is_empty() {
        let (instruction, consumed) = PimInstruction::decode(geometry, words)?;
        out.push(instruction);
        words = &words[consumed..];
    }
    Ok(out)
}

/// Executes a decoded stream on an engine, stopping at the first failure.
///
/// # Errors
///
/// Wraps the failing engine error.
pub fn execute_stream(
    engine: &mut PinatuboEngine,
    instructions: &[PimInstruction],
) -> Result<(), RuntimeError> {
    for instruction in instructions {
        instruction.execute(engine)?;
    }
    Ok(())
}

/// Errors decoding the binary instruction format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The stream ended mid-instruction.
    Truncated {
        /// Words the instruction needed.
        needed: usize,
    },
    /// The header carried an unknown opcode.
    UnknownOpcode {
        /// The offending opcode byte.
        opcode: u8,
    },
    /// A packed address exceeds the geometry's row count.
    AddressOutOfRange {
        /// The offending linear row index.
        linear: u64,
    },
    /// The header's operand count does not fit its opcode (NOT takes
    /// one operand, OR/AND/XOR at least two), or its column count is 0
    /// or more than one row holds.
    IllFormed {
        /// The header's opcode byte.
        opcode: u8,
        /// The header's operand count.
        operands: usize,
        /// The header's column count.
        cols: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed } => {
                write!(f, "instruction stream truncated: {needed} words needed")
            }
            DecodeError::UnknownOpcode { opcode } => write!(f, "unknown PIM opcode {opcode:#x}"),
            DecodeError::AddressOutOfRange { linear } => {
                write!(f, "packed row address {linear} outside the geometry")
            }
            DecodeError::IllFormed {
                opcode,
                operands,
                cols,
            } => write!(
                f,
                "ill-formed instruction: opcode {opcode:#x} with {operands} operands over {cols} columns"
            ),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pinatubo_core::PinatuboConfig;
    use pinatubo_mem::{MemConfig, RowData};

    fn geometry() -> MemGeometry {
        MemGeometry::pcm_default()
    }

    fn sample_instruction() -> PimInstruction {
        PimInstruction {
            op: BitwiseOp::Or,
            operands: vec![
                RowAddr::new(0, 0, 0, 0, 1),
                RowAddr::new(0, 0, 0, 0, 2),
                RowAddr::new(0, 0, 0, 0, 3),
            ],
            dst: RowAddr::new(0, 0, 0, 0, 9),
            cols: 4096,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let g = geometry();
        let instruction = sample_instruction();
        let words = instruction.encode(&g);
        assert_eq!(words.len(), 5);
        let (decoded, consumed) = PimInstruction::decode(&g, &words).expect("decodes");
        assert_eq!(consumed, 5);
        assert_eq!(decoded, instruction);
    }

    #[test]
    fn stream_round_trips() {
        let g = geometry();
        let instructions = vec![
            sample_instruction(),
            PimInstruction {
                op: BitwiseOp::Not,
                operands: vec![RowAddr::new(1, 1, 3, 7, 500)],
                dst: RowAddr::new(1, 1, 3, 7, 501),
                cols: 1 << 19,
            },
        ];
        let words = encode_stream(&g, &instructions);
        let decoded = decode_stream(&g, &words).expect("decodes");
        assert_eq!(decoded, instructions);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let g = geometry();
        let words = sample_instruction().encode(&g);
        assert_eq!(
            PimInstruction::decode(&g, &words[..2]),
            Err(DecodeError::Truncated { needed: 5 })
        );
        assert!(decode_stream(&g, &words[..words.len() - 1]).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let g = geometry();
        let mut words = sample_instruction().encode(&g);
        words[0] |= 0xFF << 56;
        assert!(matches!(
            PimInstruction::decode(&g, &words),
            Err(DecodeError::UnknownOpcode { .. })
        ));
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let g = geometry();
        let mut words = sample_instruction().encode(&g);
        words[1] = g.total_rows();
        assert_eq!(
            PimInstruction::decode(&g, &words),
            Err(DecodeError::AddressOutOfRange {
                linear: g.total_rows()
            })
        );
    }

    /// An `op` over `n` operand rows and `cols` columns.
    fn shaped(op: BitwiseOp, n: u32, cols: u64) -> PimInstruction {
        PimInstruction {
            op,
            operands: (1..=n).map(|row| RowAddr::new(0, 0, 0, 0, row)).collect(),
            dst: RowAddr::new(0, 0, 0, 0, 0),
            cols,
        }
    }

    #[test]
    fn ill_formed_headers_are_rejected() {
        let g = geometry();
        let width = g.logical_row_bits();
        let decode = |i: &PimInstruction| PimInstruction::decode(&g, &i.encode(&g));
        assert_eq!(
            decode(&shaped(BitwiseOp::Or, 1, 64)),
            Err(DecodeError::IllFormed {
                opcode: 1,
                operands: 1,
                cols: 64
            })
        );
        for bad in [
            shaped(BitwiseOp::Or, 0, 64),
            shaped(BitwiseOp::Not, 0, 64),
            shaped(BitwiseOp::Not, 2, 64),
            shaped(BitwiseOp::And, 2, 0),
            shaped(BitwiseOp::Xor, 2, width + 1),
        ] {
            assert!(
                matches!(decode(&bad), Err(DecodeError::IllFormed { .. })),
                "{bad:?}"
            );
        }
        for good in [
            shaped(BitwiseOp::Or, 2, 64),
            shaped(BitwiseOp::Not, 1, 64),
            shaped(BitwiseOp::And, 2, width),
        ] {
            let words = good.encode(&g);
            assert_eq!(decode(&good), Ok((good, words.len())));
        }
    }

    #[test]
    fn decoded_stream_executes_on_the_engine() {
        let g = geometry();
        let mut engine = PinatuboEngine::new(MemConfig::pcm_default(), PinatuboConfig::default());
        let instruction = sample_instruction();
        engine
            .memory_mut()
            .poke_row(instruction.operands[1], &RowData::from_bits(&[true, true]))
            .expect("poke");

        let words = instruction.encode(&g);
        let decoded = decode_stream(&g, &words).expect("decodes");
        execute_stream(&mut engine, &decoded).expect("executes");
        assert_eq!(
            engine
                .memory()
                .peek_row(instruction.dst)
                .expect("written")
                .bits(2),
            vec![true, true]
        );
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::Truncated { needed: 3 }
            .to_string()
            .contains("3 words"));
        assert!(DecodeError::UnknownOpcode { opcode: 9 }
            .to_string()
            .contains("0x9"));
        assert!(DecodeError::IllFormed {
            opcode: 4,
            operands: 2,
            cols: 8
        }
        .to_string()
        .contains("2 operands over 8 columns"));
    }
}
