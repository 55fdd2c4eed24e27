//! The Online Matrix-Vector Multiplication (OMv) workload.
//!
//! Prop. 10 reduces OMv to maintaining δ1-hierarchical queries: an `n × n`
//! Boolean matrix `M` is encoded as relation `R(A,B)` (`R(i,j) = 1` iff
//! `M[i][j]`), and each arriving vector `v_r` as relation `S(B)`
//! (`S(j) = 1` iff `v_r[j]`). After loading `v_r`, enumerating
//! `Q(A) = R(A,B), S(B)` yields exactly the non-zero entries of `M·v_r`.
//!
//! The experiment measures the total time of `n` rounds as a function of ε:
//! the paper's weakly Pareto-optimal point is ε = ½ with `O(N^{1/2})` update
//! time and delay (Fig. 3).

use ivme_data::{DeltaBatch, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random OMv instance: the matrix plus `rounds` query vectors.
pub struct OmvInstance {
    pub n: usize,
    /// Matrix entries `(i, j)` with `M[i][j] = 1`.
    pub matrix: Vec<(i64, i64)>,
    /// Per round: the set positions of the vector.
    pub vectors: Vec<Vec<i64>>,
}

impl OmvInstance {
    /// Generates an instance with entry density `density` and `rounds`
    /// vectors of the same density.
    pub fn generate(n: usize, rounds: usize, density: f64, seed: u64) -> OmvInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrix = Vec::new();
        for i in 0..n as i64 {
            for j in 0..n as i64 {
                if rng.gen::<f64>() < density {
                    matrix.push((i, j));
                }
            }
        }
        let vectors = (0..rounds)
            .map(|_| {
                (0..n as i64)
                    .filter(|_| rng.gen::<f64>() < density)
                    .collect()
            })
            .collect();
        OmvInstance { n, matrix, vectors }
    }

    /// The deterministic acceptance instance shared by the benchmark
    /// harness (`fig_omv_rounds`, `fig_enum_delay`) and the profiling
    /// driver: an `n × n` sparse matrix with exactly two entries per row
    /// (deterministic column spread) and a single **full** vector, so one
    /// round is exactly `n` unit inserts and the result covers every row.
    pub fn sparse_acceptance(n: usize) -> OmvInstance {
        let n = n as i64;
        OmvInstance {
            n: n as usize,
            matrix: (0..n)
                .flat_map(|i| (0..2).map(move |k| (i, (i * 13 + k * 197) % n)))
                .collect(),
            vectors: vec![(0..n).collect()],
        }
    }

    /// Matrix tuples as `R(A,B)` rows.
    pub fn matrix_tuples(&self) -> Vec<Tuple> {
        self.matrix
            .iter()
            .map(|&(i, j)| Tuple::ints(&[i, j]))
            .collect()
    }

    /// Vector `r`'s tuples as `S(B)` rows.
    pub fn vector_tuples(&self, r: usize) -> Vec<Tuple> {
        self.vectors[r].iter().map(|&j| Tuple::ints(&[j])).collect()
    }

    /// The whole matrix as one bulk-load batch into `R(A,B)`.
    pub fn matrix_batch(&self) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for &(i, j) in &self.matrix {
            b.insert("R", Tuple::ints(&[i, j]));
        }
        b
    }

    /// Round `r`'s vector load as one batch of inserts into `S(B)` —
    /// the batched form of the `n` single-tuple updates a round performs.
    pub fn vector_batch(&self, r: usize) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for &j in &self.vectors[r] {
            b.insert("S", Tuple::ints(&[j]));
        }
        b
    }

    /// Round `r`'s vector retraction as one batch of deletes from `S(B)`.
    pub fn vector_retract_batch(&self, r: usize) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for &j in &self.vectors[r] {
            b.delete("S", Tuple::ints(&[j]));
        }
        b
    }

    /// Ground truth: the set of rows `i` with `(M·v_r)[i] = 1`.
    pub fn expected_product(&self, r: usize) -> Vec<i64> {
        let vset: std::collections::HashSet<i64> = self.vectors[r].iter().copied().collect();
        let mut rows: Vec<i64> = self
            .matrix
            .iter()
            .filter(|&&(_, j)| vset.contains(&j))
            .map(|&(i, _)| i)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let a = OmvInstance::generate(8, 3, 0.5, 11);
        let b = OmvInstance::generate(8, 3, 0.5, 11);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.vectors, b.vectors);
        assert!(a.matrix.len() <= 64);
        assert_eq!(a.vectors.len(), 3);
        for &(i, j) in &a.matrix {
            assert!((0..8).contains(&i) && (0..8).contains(&j));
        }
    }

    #[test]
    fn expected_product_matches_manual() {
        let inst = OmvInstance {
            n: 3,
            matrix: vec![(0, 1), (2, 2)],
            vectors: vec![vec![1], vec![2], vec![0]],
        };
        assert_eq!(inst.expected_product(0), vec![0]);
        assert_eq!(inst.expected_product(1), vec![2]);
        assert!(inst.expected_product(2).is_empty());
        assert_eq!(inst.matrix_tuples().len(), 2);
        assert_eq!(inst.vector_tuples(0), vec![Tuple::ints(&[1])]);
    }

    #[test]
    fn batches_mirror_tuple_lists() {
        let inst = OmvInstance::generate(8, 2, 0.5, 5);
        let mb = inst.matrix_batch();
        assert_eq!(mb.cardinality(), inst.matrix.len());
        assert_eq!(mb.deltas("R").count(), inst.matrix.len());
        let vb = inst.vector_batch(0);
        assert_eq!(vb.deltas("S").count(), inst.vectors[0].len());
        assert!(vb.deltas("S").all(|(_, m)| m == 1));
        let rb = inst.vector_retract_batch(0);
        assert!(rb.deltas("S").all(|(_, m)| m == -1));
        // Load + retract cancels exactly.
        let mut net = inst.vector_batch(0);
        for &j in &inst.vectors[0] {
            net.delete("S", Tuple::ints(&[j]));
        }
        assert!(net.is_empty());
    }
}
