//! Randomized tests for the software stack: allocation invariants, ISA
//! round-trips, and scheduler semantics preservation. Driven by the in-repo
//! seedable [`SimRng`] for deterministic case generation.

use pinatubo_core::rng::SimRng;
use pinatubo_core::BitwiseOp;
use pinatubo_mem::{MemGeometry, RowAddr};
use pinatubo_runtime::isa::{decode_stream, encode_stream, DecodeError, PimInstruction};
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimAllocator, PimBitVec, PimSystem};

const OPS: [BitwiseOp; 4] = [
    BitwiseOp::Or,
    BitwiseOp::And,
    BitwiseOp::Xor,
    BitwiseOp::Not,
];

fn random_addr(g: &MemGeometry, rng: &mut SimRng) -> RowAddr {
    RowAddr::from_linear(g, rng.gen_range_u64(0, g.total_rows()))
}

/// Any well-formed instruction survives encode → decode unchanged.
#[test]
fn isa_round_trips() {
    let g = MemGeometry::pcm_default();
    let mut rng = SimRng::seed_from_u64(0x15A);
    for case in 0..256 {
        let op = OPS[case % OPS.len()];
        let n = 1 + rng.gen_index(15);
        let operands: Vec<RowAddr> = (0..n).map(|_| random_addr(&g, &mut rng)).collect();
        let operands = if op == BitwiseOp::Not {
            operands[..1].to_vec()
        } else if operands.len() < 2 {
            vec![operands[0], operands[0]]
        } else {
            operands
        };
        let dst = random_addr(&g, &mut rng);
        let cols = 1 + rng.gen_range_u64(0, (1 << 19) - 1);
        let instruction = PimInstruction {
            op,
            operands,
            dst,
            cols,
        };
        let words = encode_stream(&g, std::slice::from_ref(&instruction));
        let decoded = decode_stream(&g, &words).expect("round trip decodes");
        assert_eq!(decoded, vec![instruction]);
    }
}

/// The decoder takes any words without panicking. Seeded streams of zero
/// to eight words mix random words with instruction-shaped runs: a header
/// with an opcode of 0–5 (1–4 are defined), an operand count of 0–3 and a
/// column count at the edges of the row width (0, 1, the width, one past
/// it, or below it), then that many operand addresses and a destination,
/// each at the edge of the address space (three in range, one just past
/// it), the stream cut at its length. Each stream decodes or returns a
/// [`DecodeError`], and every stream that decodes re-encodes to the same
/// words.
#[test]
fn decoder_never_panics_and_round_trips_what_it_accepts() {
    let g = MemGeometry::pcm_default();
    let total = g.total_rows();
    let width = g.logical_row_bits();
    let mut rng = SimRng::seed_from_u64(0xDEC0DE);
    let (mut accepted, mut instructions) = (0, 0);
    let (mut truncated, mut unknown, mut out_of_range, mut ill_formed) = (0, 0, 0, 0);
    for _ in 0..20_000 {
        let len = rng.gen_index(9);
        let mut words = Vec::with_capacity(len + 5);
        while words.len() < len {
            if rng.gen_index(8) == 0 {
                words.push(rng.next_u64());
                continue;
            }
            let opcode = rng.gen_range_u64(0, 6);
            let count = rng.gen_range_u64(0, 4);
            let cols = match rng.gen_index(5) {
                0 => 0,
                1 => 1,
                2 => width,
                3 => width + 1,
                _ => rng.gen_range_u64(0, width),
            };
            words.push((opcode << 56) | (count << 40) | cols);
            for _ in 0..count + 2 {
                words.push(total - 3 + rng.gen_range_u64(0, 4));
            }
        }
        words.truncate(len);
        match decode_stream(&g, &words) {
            Ok(decoded) => {
                accepted += 1;
                instructions += decoded.len();
                assert_eq!(encode_stream(&g, &decoded), words, "{words:#x?}");
            }
            Err(DecodeError::Truncated { .. }) => truncated += 1,
            Err(DecodeError::UnknownOpcode { .. }) => unknown += 1,
            Err(DecodeError::AddressOutOfRange { .. }) => out_of_range += 1,
            Err(DecodeError::IllFormed { .. }) => ill_formed += 1,
            Err(other) => panic!("no stream here can raise {other}"),
        }
    }
    // Every outcome must occur for the streams to mean anything, and
    // more than the empty streams must decode.
    assert!(
        instructions > 0 && truncated > 0 && unknown > 0 && out_of_range > 0 && ill_formed > 0,
        "accepted {accepted} ({instructions} instructions), truncated {truncated}, \
         unknown opcode {unknown}, out of range {out_of_range}, ill-formed {ill_formed}"
    );
}

/// Group allocation never reuses a row and keeps fitting groups in one
/// subarray under the PIM-aware policy.
#[test]
fn alloc_group_invariants() {
    let mut rng = SimRng::seed_from_u64(0xA110C);
    for _ in 0..32 {
        let mut allocator =
            PimAllocator::new(MemGeometry::pcm_default(), MappingPolicy::SubarrayFirst);
        let mut seen = std::collections::HashSet::new();
        let groups = 1 + rng.gen_index(23);
        for _ in 0..groups {
            let size = 1 + rng.gen_index(63);
            let group = allocator.alloc_group(size, 64).expect("allocates");
            assert_eq!(group.len(), size);
            let first = group[0].rows()[0];
            for vector in &group {
                for row in vector.rows() {
                    assert!(seen.insert(*row), "row {row} reused");
                    assert!(row.same_subarray(&first));
                }
            }
        }
    }
}

/// A scheduled batch produces exactly the same destination contents as
/// submission-order execution, for arbitrary dependency chains.
#[test]
fn scheduler_preserves_semantics() {
    let mut outer = SimRng::seed_from_u64(0x5C4E);
    for _ in 0..24 {
        let seed = outer.next_u64();
        let count = 2 + outer.gen_index(8);
        let ops: Vec<(BitwiseOp, u64)> = (0..count)
            .map(|_| (OPS[outer.gen_index(OPS.len())], outer.next_u64()))
            .collect();

        let build = |sys: &mut PimSystem| -> (Vec<BatchRequest>, Vec<PimBitVec>) {
            let mut rng = SimRng::seed_from_u64(seed);
            // A pool the requests read from and write into, creating
            // genuine dependency chains.
            let pool: Vec<PimBitVec> = (0..6)
                .map(|i| {
                    let v = sys.alloc(96).expect("alloc");
                    let bits: Vec<bool> = (0..96).map(|j| (i * 13 + j) % 5 == 0).collect();
                    sys.store(&v, &bits).expect("store");
                    v
                })
                .collect();
            let requests = ops
                .iter()
                .map(|&(op, pick)| {
                    let a = pool[(pick % 6) as usize].clone();
                    let b = pool[((pick >> 8) % 6) as usize].clone();
                    let dst = pool[rng.gen_index(6)].clone();
                    let operands = if op == BitwiseOp::Not {
                        vec![a]
                    } else {
                        vec![a, b]
                    };
                    BatchRequest { op, operands, dst }
                })
                .collect();
            (requests, pool)
        };

        let mut scheduled = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
        let (requests, pool) = build(&mut scheduled);
        scheduled.execute_batch(&requests).expect("scheduled batch");
        let scheduled_state: Vec<Vec<bool>> = pool.iter().map(|v| scheduled.load(v)).collect();

        let mut sequential = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
        let (requests, pool) = build(&mut sequential);
        for r in &requests {
            let operands: Vec<&PimBitVec> = r.operands.iter().collect();
            sequential
                .bitwise(r.op, &operands, &r.dst)
                .expect("sequential op");
        }
        let sequential_state: Vec<Vec<bool>> = pool.iter().map(|v| sequential.load(v)).collect();

        assert_eq!(scheduled_state, sequential_state);
    }
}

/// Copy is exact for any length, including multi-segment vectors.
#[test]
fn copy_round_trips() {
    let mut rng = SimRng::seed_from_u64(0xC0);
    for _ in 0..24 {
        let len = 1 + rng.gen_index(1999);
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
        let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
        let src = sys.alloc(bits.len() as u64).expect("src");
        let dst = sys.alloc(bits.len() as u64).expect("dst");
        sys.store(&src, &bits).expect("store");
        sys.copy(&src, &dst).expect("copy");
        assert_eq!(sys.load(&dst), bits);
    }
}
