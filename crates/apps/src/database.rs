//! The bitmap-index database workload (Table 1's Fastbit application,
//! after Wu's FastBit \[26\]).
//!
//! A table of `rows` events with several binned attributes is indexed with
//! equality-encoded bitmaps: one `rows`-bit bitmap per (attribute, bin),
//! set where the event falls in that bin. A multi-attribute range query
//! then evaluates as
//!
//! ```text
//! result = AND over attributes ( OR over bins in the attribute's range )
//! ```
//!
//! — per-attribute multi-row ORs followed by an AND chain, the exact
//! op mix Pinatubo accelerates. The synthetic event table stands in for
//! the STAR experiment data the paper queries (see `DESIGN.md` §4).

use crate::AppRun;
use pinatubo_core::rng::SimRng;
use pinatubo_core::BitwiseOp;
use pinatubo_runtime::microcode::{self, CompileOptions, MicroProgram, TransposedVec};
use pinatubo_runtime::{PimBitVec, PimSystem, RuntimeError};

/// Shape of the synthetic event table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Events in the table.
    pub rows: u64,
    /// Binned attributes.
    pub attributes: usize,
    /// Bins per attribute.
    pub bins: usize,
    /// RNG seed for the synthetic data.
    pub seed: u64,
}

impl TableSpec {
    /// The STAR-like default: 2^20 events, 4 attributes × 16 bins — big
    /// enough that the bitmaps stream from main memory, as the paper's
    /// multi-terabyte event store does.
    #[must_use]
    pub fn star_like() -> Self {
        TableSpec {
            rows: 1 << 20,
            attributes: 4,
            bins: 16,
            seed: 0x57A2,
        }
    }
}

/// An equality-encoded bitmap index resident in PIM memory.
#[derive(Debug)]
pub struct BitmapIndex {
    spec: TableSpec,
    /// `columns[a][r]` = bin of event `r` in attribute `a` (ground truth
    /// for verification).
    columns: Vec<Vec<u8>>,
    /// `bitmaps[a][b]` = the (attribute a, bin b) bitmap.
    bitmaps: Vec<Vec<PimBitVec>>,
    /// Reusable per-attribute result buffers, co-located with the index so
    /// query operations stay intra-subarray.
    attr_scratch: Vec<PimBitVec>,
    /// Reusable final-result buffer.
    final_scratch: PimBitVec,
}

impl BitmapIndex {
    /// Generates the synthetic table and builds its index in `sys`
    /// (setup, uncharged — real deployments build the index once offline).
    ///
    /// # Errors
    ///
    /// Propagates allocation/store failures.
    pub fn build(spec: TableSpec, sys: &mut PimSystem) -> Result<Self, RuntimeError> {
        let mut rng = SimRng::seed_from_u64(spec.seed);
        // Event attributes cluster around detector-dependent peaks rather
        // than spreading uniformly; a simple triangular distribution gives
        // the bins realistic, unequal populations.
        let mut columns = Vec::with_capacity(spec.attributes);
        for _ in 0..spec.attributes {
            let column: Vec<u8> = (0..spec.rows)
                .map(|_| {
                    let a = rng.gen_range_u64(0, spec.bins as u64) as u32;
                    let b = rng.gen_range_u64(0, spec.bins as u64) as u32;
                    ((a + b) / 2) as u8
                })
                .collect();
            columns.push(column);
        }

        // The whole index plus the reusable query buffers is one placement
        // group: the PIM-aware allocator keeps it inside a subarray when it
        // fits, so query operations are intra-subarray (§5).
        let total_vectors = spec.attributes * spec.bins + spec.attributes + 1;
        let mut group = sys.alloc_group(total_vectors, spec.rows)?;
        let final_scratch = group.pop().expect("group includes the final buffer");
        let attr_scratch = group.split_off(spec.attributes * spec.bins);

        let mut bitmaps: Vec<Vec<PimBitVec>> = Vec::with_capacity(spec.attributes);
        let mut group_iter = group.into_iter();
        for column in &columns {
            let mut attr_maps = Vec::with_capacity(spec.bins);
            for bin in 0..spec.bins {
                let vec = group_iter.next().expect("group sized for all bitmaps");
                let bits: Vec<bool> = column.iter().map(|&c| usize::from(c) == bin).collect();
                if let Err(e) = sys.store(&vec, &bits) {
                    // A failed store must not leak the placement group:
                    // hand back every row — the bitmaps stored so far, this
                    // one, the untouched tail, and the query buffers.
                    attr_maps.push(vec);
                    let tail: Vec<PimBitVec> = group_iter.collect();
                    sys.release_vecs(
                        bitmaps
                            .iter()
                            .flatten()
                            .chain(&attr_maps)
                            .chain(&tail)
                            .chain(&attr_scratch)
                            .chain(std::iter::once(&final_scratch)),
                    );
                    return Err(e);
                }
                attr_maps.push(vec);
            }
            bitmaps.push(attr_maps);
        }
        Ok(BitmapIndex {
            spec,
            columns,
            bitmaps,
            attr_scratch,
            final_scratch,
        })
    }

    /// The table shape.
    #[must_use]
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Evaluates `query`, returning the matching event count. The
    /// bitwise work lands in `sys`'s trace/stats; scalar bookkeeping is
    /// returned for the caller to accumulate.
    ///
    /// # Errors
    ///
    /// Propagates allocation/operation failures.
    pub fn run_query(
        &self,
        query: &Query,
        sys: &mut PimSystem,
    ) -> Result<QueryOutcome, RuntimeError> {
        let mut scalar_instructions = 50; // parse/plan
        for (a, &(lo, hi)) in query.ranges.iter().enumerate() {
            let operands: Vec<&PimBitVec> = (lo..=hi)
                .map(|b| &self.bitmaps[a][usize::from(b)])
                .collect();
            scalar_instructions += 10 * operands.len() as u64;
            if operands.len() == 1 {
                // Single-bin range: materialize via a degenerate 2-row OR
                // (the planner could alias, but FastBit materializes too).
                sys.or_many(&[operands[0], operands[0]], &self.attr_scratch[a])?;
            } else {
                sys.or_many(&operands, &self.attr_scratch[a])?;
            }
        }

        // AND the per-attribute results together.
        let refs: Vec<&PimBitVec> = self.attr_scratch.iter().collect();
        if refs.len() == 1 {
            sys.bitwise(BitwiseOp::And, &[refs[0], refs[0]], &self.final_scratch)?;
        } else {
            sys.bitwise(BitwiseOp::And, &refs, &self.final_scratch)?;
        }

        let count = sys.count_ones(&self.final_scratch);
        // Scalar: fetch each hit's event record and aggregate over it —
        // the dominant non-bitwise cost of a FastBit query.
        scalar_instructions += 800 * count;
        Ok(QueryOutcome {
            count,
            scalar_instructions,
            scalar_bytes: self.spec.rows / 8 + 1100 * count,
        })
    }

    /// Scalar reference evaluation, for verification.
    #[must_use]
    pub fn count_reference(&self, query: &Query) -> u64 {
        (0..self.spec.rows as usize)
            .filter(|&r| {
                query.ranges.iter().enumerate().all(|(a, &(lo, hi))| {
                    let bin = self.columns[a][r];
                    bin >= lo && bin <= hi
                })
            })
            .count() as u64
    }

    /// Evaluates `query` with an aggregation pushdown: the measure
    /// predicate `column[r] >= min_value` is computed in PIM as a
    /// bit-serial comparison, ANDed into the bitmap result, and counted
    /// in memory — only the final count crosses the bus, instead of the
    /// base query's whole hit set.
    ///
    /// # Errors
    ///
    /// Propagates allocation/operation failures.
    ///
    /// # Panics
    ///
    /// Panics if `column` does not cover the table's rows.
    pub fn run_query_filtered(
        &self,
        query: &Query,
        column: &ValueColumn,
        min_value: u64,
        sys: &mut PimSystem,
    ) -> Result<QueryOutcome, RuntimeError> {
        assert_eq!(
            column.values().len() as u64,
            self.spec.rows,
            "the measure column must cover every event"
        );
        let mut scalar_instructions = 60; // parse/plan, incl. the predicate
        for (a, &(lo, hi)) in query.ranges.iter().enumerate() {
            let operands: Vec<&PimBitVec> = (lo..=hi)
                .map(|b| &self.bitmaps[a][usize::from(b)])
                .collect();
            scalar_instructions += 10 * operands.len() as u64;
            if operands.len() == 1 {
                sys.or_many(&[operands[0], operands[0]], &self.attr_scratch[a])?;
            } else {
                sys.or_many(&operands, &self.attr_scratch[a])?;
            }
        }

        // The predicate mask joins the AND chain like another attribute.
        let predicate = column.filter_ge(min_value, sys)?;
        let mut refs: Vec<&PimBitVec> = self.attr_scratch.iter().collect();
        refs.push(&predicate);
        let and_outcome = sys.bitwise(BitwiseOp::And, &refs, &self.final_scratch);
        // The mask is per-query scratch: return its row either way.
        sys.release_vecs(std::iter::once(&predicate));
        and_outcome?;

        let count = sys.count_ones(&self.final_scratch);
        scalar_instructions += 800 * count;
        Ok(QueryOutcome {
            count,
            scalar_instructions,
            scalar_bytes: self.spec.rows / 8 + 1100 * count,
        })
    }

    /// Scalar reference for [`Self::run_query_filtered`].
    ///
    /// # Panics
    ///
    /// Panics if `column` does not cover the table's rows.
    #[must_use]
    pub fn count_reference_filtered(
        &self,
        query: &Query,
        column: &ValueColumn,
        min_value: u64,
    ) -> u64 {
        assert_eq!(column.values().len() as u64, self.spec.rows);
        (0..self.spec.rows as usize)
            .filter(|&r| {
                column.values()[r] >= min_value
                    && query.ranges.iter().enumerate().all(|(a, &(lo, hi))| {
                        let bin = self.columns[a][r];
                        bin >= lo && bin <= hi
                    })
            })
            .count() as u64
    }

    /// Total index footprint in bytes (all bitmaps).
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.spec.rows / 8 * (self.spec.attributes * self.spec.bins) as u64
    }
}

/// A per-event integer measure column resident in PIM memory in
/// bit-transposed form, so predicates on it evaluate as bit-serial
/// µ-ops instead of streaming the values to the CPU.
#[derive(Debug)]
pub struct ValueColumn {
    values: Vec<u64>,
    planes: TransposedVec,
}

impl ValueColumn {
    /// Loads a measure column (setup, uncharged).
    ///
    /// # Errors
    ///
    /// Propagates allocation/store failures.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, `width_bits` is outside `1..=64`, or
    /// any value overflows the declared width.
    pub fn build(
        values: Vec<u64>,
        width_bits: u32,
        sys: &mut PimSystem,
    ) -> Result<Self, RuntimeError> {
        assert!(!values.is_empty(), "a measure column needs values");
        if width_bits < 64 {
            assert!(
                values.iter().all(|&v| v >> width_bits == 0),
                "values must fit the declared column width"
            );
        }
        let planes = sys.alloc_transposed(values.len() as u64, width_bits)?;
        if let Err(e) = sys.store_lanes(&planes, &values) {
            // Don't leak the placement group on a failed load.
            sys.release_vecs(planes.planes());
            return Err(e);
        }
        Ok(ValueColumn { values, planes })
    }

    /// A synthetic measure (e.g. event energy), clustered like real
    /// detector data.
    #[must_use]
    pub fn synthetic_values(rows: u64, width_bits: u32, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed);
        let max = if width_bits >= 64 {
            u64::MAX
        } else {
            (1 << width_bits) - 1
        };
        (0..rows)
            .map(|_| {
                let a = rng.gen_range_u64(0, max / 2 + 1);
                let b = rng.gen_range_u64(0, max / 2 + 1);
                a + b // triangular, like the binned attributes
            })
            .collect()
    }

    /// The ground-truth values.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The column's lane width in bits.
    #[must_use]
    pub fn width_bits(&self) -> u32 {
        self.planes.width_bits()
    }

    /// Computes the predicate mask `value >= min_value` with the
    /// bit-serial comparator, returning a freshly allocated mask.
    ///
    /// # Errors
    ///
    /// Propagates allocation/operation failures.
    pub fn filter_ge(
        &self,
        min_value: u64,
        sys: &mut PimSystem,
    ) -> Result<PimBitVec, RuntimeError> {
        let mask = sys.alloc(self.values.len() as u64)?;
        let program = MicroProgram::cmp_ge_const(&self.planes, min_value, &mask);
        match microcode::run(&[program], CompileOptions::default(), sys) {
            Ok(_) => Ok(mask),
            Err(e) => {
                sys.release_vecs(std::iter::once(&mask));
                Err(e)
            }
        }
    }
}

/// A conjunctive multi-attribute range query: per attribute, an inclusive
/// bin range `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// One `(lo, hi)` bin range per attribute.
    pub ranges: Vec<(u8, u8)>,
}

impl Query {
    /// A random query over `spec`'s attributes, with range widths drawn to
    /// mix selective and broad predicates.
    #[must_use]
    pub fn random(spec: &TableSpec, rng: &mut SimRng) -> Self {
        let ranges = (0..spec.attributes)
            .map(|_| {
                let lo = rng.gen_range_u64(0, spec.bins as u64) as u8;
                let width = rng
                    .gen_range_u64(0, u64::from(spec.bins as u8 - lo.min(spec.bins as u8 - 1)))
                    as u8;
                (lo, (lo + width).min(spec.bins as u8 - 1))
            })
            .collect();
        Query { ranges }
    }
}

/// What one query cost outside the bitwise trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Matching events.
    pub count: u64,
    /// Scalar instructions spent planning/aggregating.
    pub scalar_instructions: u64,
    /// Bytes the scalar part touched.
    pub scalar_bytes: u64,
}

/// Runs the full Fastbit workload: build the index, evaluate
/// `query_count` random queries, and account the work.
///
/// # Errors
///
/// Propagates index/query failures.
pub fn run_database_workload(
    query_count: usize,
    sys: &mut PimSystem,
) -> Result<AppRun, RuntimeError> {
    let spec = TableSpec::star_like();
    let index = BitmapIndex::build(spec, sys)?;
    let mut rng = SimRng::seed_from_u64(spec.seed ^ query_count as u64);

    // Measured region: the queries.
    sys.take_stats();
    let _ = sys.take_trace();
    let mut scalar_instructions = 0u64;
    let mut scalar_bytes = 0u64;
    for _ in 0..query_count {
        let query = Query::random(&spec, &mut rng);
        let outcome = index.run_query(&query, sys)?;
        scalar_instructions += outcome.scalar_instructions;
        scalar_bytes += outcome.scalar_bytes;
    }

    Ok(AppRun {
        name: query_count.to_string(),
        trace: sys.take_trace(),
        scalar_instructions,
        scalar_bytes,
        footprint_bytes: index.footprint_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinatubo_core::OpClass;
    use pinatubo_runtime::MappingPolicy;

    fn small_spec() -> TableSpec {
        TableSpec {
            rows: 4096,
            attributes: 3,
            bins: 8,
            seed: 42,
        }
    }

    fn sys() -> PimSystem {
        PimSystem::pcm_default(MappingPolicy::SubarrayFirst)
    }

    #[test]
    fn query_counts_match_reference() {
        let mut s = sys();
        let index = BitmapIndex::build(small_spec(), &mut s).expect("build");
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..20 {
            let q = Query::random(index.spec(), &mut rng);
            let got = index.run_query(&q, &mut s).expect("query").count;
            assert_eq!(got, index.count_reference(&q), "query {q:?}");
        }
    }

    #[test]
    fn full_range_query_matches_everything() {
        let mut s = sys();
        let index = BitmapIndex::build(small_spec(), &mut s).expect("build");
        let q = Query {
            ranges: vec![(0, 7); 3],
        };
        let got = index.run_query(&q, &mut s).expect("query").count;
        assert_eq!(got, 4096);
    }

    #[test]
    fn empty_range_intersection_matches_nothing() {
        let mut s = sys();
        let index = BitmapIndex::build(small_spec(), &mut s).expect("build");
        // The triangular distribution never reaches bin 0 and bin 7
        // simultaneously for the same event when ranges conflict across
        // attributes only rarely; force emptiness with ground truth.
        let q = Query {
            ranges: vec![(0, 0), (7, 7), (0, 7)],
        };
        let got = index.run_query(&q, &mut s).expect("query").count;
        assert_eq!(got, index.count_reference(&q));
    }

    #[test]
    fn workload_records_multi_row_ors() {
        let mut s = sys();
        let run = run_database_workload(10, &mut s).expect("workload");
        assert!(!run.trace.is_empty());
        assert!(
            run.trace
                .iter()
                .any(|o| o.op == BitwiseOp::Or && o.operand_count > 2),
            "range queries should issue multi-row ORs"
        );
        assert!(run.trace.iter().any(|o| o.op == BitwiseOp::And));
        assert!(run.scalar_instructions > 0);
    }

    #[test]
    fn filtered_query_counts_match_reference() {
        let mut s = sys();
        let spec = small_spec();
        let index = BitmapIndex::build(spec, &mut s).expect("build");
        let column = ValueColumn::build(
            ValueColumn::synthetic_values(spec.rows, 12, 0xC0),
            12,
            &mut s,
        )
        .expect("column");
        let free_before = s.allocator().free_rows();
        let mut rng = SimRng::seed_from_u64(11);
        for min_value in [0u64, 1, 500, 2048, 4000, 4095, 4096] {
            let q = Query::random(index.spec(), &mut rng);
            let got = index
                .run_query_filtered(&q, &column, min_value, &mut s)
                .expect("query")
                .count;
            assert_eq!(
                got,
                index.count_reference_filtered(&q, &column, min_value),
                "query {q:?} min {min_value}"
            );
        }
        // Predicate masks and comparator scratch are per-query: the free
        // pool must round-trip across the whole batch.
        assert_eq!(s.allocator().free_rows(), free_before);
    }

    #[test]
    fn repeated_pushdowns_reuse_rows_and_stay_intra_subarray() {
        let mut s = sys();
        let spec = TableSpec {
            rows: 1 << 14,
            ..TableSpec::star_like()
        };
        let index = BitmapIndex::build(spec, &mut s).expect("build");
        let column = ValueColumn::build(
            ValueColumn::synthetic_values(spec.rows, 12, 0xC2),
            12,
            &mut s,
        )
        .expect("column");
        let free_before = s.allocator().free_rows();
        let mut rng = SimRng::seed_from_u64(13);
        for i in 0..400 {
            let q = Query::random(index.spec(), &mut rng);
            let ops_before = s.trace().len();
            let got = index
                .run_query_filtered(&q, &column, 2600, &mut s)
                .expect("pushdown")
                .count;
            // Each pushdown's mask and comparator scratch land on the rows
            // the previous one released, beside the index.
            let left = s.trace()[ops_before..]
                .iter()
                .find(|op| op.locality != OpClass::IntraSubarray);
            assert!(left.is_none(), "pushdown {i} left the subarray: {left:?}");
            if i % 50 == 0 {
                assert_eq!(got, index.count_reference_filtered(&q, &column, 2600));
            }
        }
        assert_eq!(s.allocator().free_rows(), free_before);
    }

    #[test]
    fn pushdown_beats_unfiltered_scalar_cost() {
        let mut s = sys();
        let spec = small_spec();
        let index = BitmapIndex::build(spec, &mut s).expect("build");
        let column = ValueColumn::build(
            ValueColumn::synthetic_values(spec.rows, 12, 0xC1),
            12,
            &mut s,
        )
        .expect("column");
        let q = Query {
            ranges: vec![(0, 7); 3],
        };
        // A selective predicate leaves the PIM side with far fewer hits to
        // hand to the scalar aggregator than the unfiltered query.
        let base = index.run_query(&q, &mut s).expect("base");
        let pushed = index
            .run_query_filtered(&q, &column, 3500, &mut s)
            .expect("pushed");
        assert!(pushed.count < base.count);
        assert!(pushed.scalar_instructions < base.scalar_instructions);
    }

    #[test]
    fn query_generation_is_reproducible() {
        let spec = small_spec();
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(Query::random(&spec, &mut a), Query::random(&spec, &mut b));
        }
    }

    #[test]
    fn ranges_are_always_valid() {
        let spec = small_spec();
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..500 {
            let q = Query::random(&spec, &mut rng);
            for &(lo, hi) in &q.ranges {
                assert!(lo <= hi);
                assert!(usize::from(hi) < spec.bins);
            }
        }
    }
}
