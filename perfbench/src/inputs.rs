//! Seeded operands: Table-I clones generated in the benchmark itself.
//!
//! [`clone_of`] mirrors `Dataset::generate` (same rows/nnz/α recipe, same
//! bulk-and-hubs mixture for scale-free entries, near-uniform rows for the
//! three non-scale-free ones) but takes its seed from the workload seed
//! instead of the catalog's fixed per-name seed. The program under test
//! only ever receives the generated matrices.

use std::sync::Arc;

use hetero_spmm::scalefree::{
    scale_free_matrix, CatalogEntry, GeneratorConfig, RowSizeDistribution, CATALOG,
};
use hetero_spmm::sparse::CsrMatrix;

/// α above which a Table-I entry is cloned with near-uniform row sizes
/// (the catalog's own cut-off).
const NON_SCALE_FREE_ALPHA: f64 = 10.0;

/// One generated operand and the facts the report records about it.
#[derive(Debug, Clone)]
pub struct Operand {
    /// `<table-I name>/<scale>` plus an instance suffix when a workload
    /// draws several clones of one entry.
    pub label: String,
    /// Platform scale the operand is multiplied at.
    pub scale: usize,
    pub seed: u64,
    /// The generator configuration that produced `matrix`.
    pub config: GeneratorConfig,
    pub matrix: Arc<CsrMatrix<f64>>,
}

impl Operand {
    pub fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// Look up a Table-I entry by its exact name.
fn entry(name: &str) -> CatalogEntry {
    *CATALOG
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not a Table-I entry"))
}

/// SplitMix64 finaliser: decorrelates the per-operand seeds drawn from one
/// workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed of instance `instance` of `name` under workload seed `seed`.
pub fn operand_seed(seed: u64, name: &str, instance: u64) -> u64 {
    mix(seed ^ mix(fnv(name) ^ instance))
}

/// The generator configuration of a Table-I clone at `1/scale` size.
fn clone_config(e: &CatalogEntry, scale: usize, seed: u64) -> GeneratorConfig {
    let rows = (e.rows / scale).max(64);
    let mean = e.nnz as f64 / e.rows as f64;
    let nnz = ((rows as f64 * mean) as usize).clamp(rows, rows * rows);
    let distribution = if e.alpha > NON_SCALE_FREE_ALPHA {
        let spread = (mean / 4.0).round().max(1.0) as usize;
        RowSizeDistribution::NearUniform { spread }
    } else {
        RowSizeDistribution::BulkAndHubs {
            alpha: e.alpha,
            hub_fraction: 0.01,
            hub_xmin_factor: 4.0,
        }
    };
    GeneratorConfig {
        nrows: rows,
        ncols: rows,
        target_nnz: nnz,
        distribution,
        seed,
    }
}

/// Generate instance `instance` of the Table-I clone `name` at `scale`.
pub fn clone_of(name: &str, scale: usize, seed: u64, instance: u64) -> Operand {
    let e = entry(name);
    let seed = operand_seed(seed, name, instance);
    let config = clone_config(&e, scale, seed);
    let matrix = scale_free_matrix::<f64>(&config);
    let label = if instance == 0 {
        format!("{name}/{scale}")
    } else {
        format!("{name}/{scale}#{instance}")
    };
    Operand {
        label,
        scale,
        seed,
        config,
        matrix: Arc::new(matrix),
    }
}
