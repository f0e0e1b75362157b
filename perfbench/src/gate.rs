//! The output gate: expected outputs computed once at set-up, checked
//! against the Gustavson reference, then compared bit for bit with every
//! timed op.

use hetero_spmm::core::{hh_cpu, HeteroContext, HhCpuConfig, PhaseBreakdown, SpmmOutput};
use hetero_spmm::serve::json::hex64;
use hetero_spmm::serve::wire::profile_fingerprint;
use hetero_spmm::sparse::{reference, CsrMatrix};

use crate::inputs::Operand;
use crate::report;

/// Relative and absolute value tolerance against the reference — the
/// tolerance the repository's own agreement tests use.
const RTOL: f64 = 1e-9;
const ATOL: f64 = 1e-12;

/// An operand pair and the output every op on it must reproduce.
#[derive(Debug)]
pub struct Case {
    pub a: Operand,
    pub b: Operand,
    pub expected: SpmmOutput<f64>,
    pub flops: u64,
}

impl Case {
    pub fn label(&self) -> String {
        if std::ptr::eq(&*self.a.matrix, &*self.b.matrix) {
            format!("{}^2", self.a.label)
        } else {
            format!("{}x{}", self.a.label, self.b.label)
        }
    }

    /// Platform scale of the product (A's).
    pub fn scale(&self) -> usize {
        self.a.scale
    }

    /// The operand facts the run records: rows, nnz, flops, nnz(C),
    /// bytes(C).
    pub fn describe(&self) -> String {
        format!(
            "{{\"case\":{},\"seed_a\":{},\"seed_b\":{},\"rows\":{},\"nnz_a\":{},\"nnz_b\":{},\"flops\":{},\"nnz_c\":{},\"bytes_c\":{}}}",
            report::string(&self.label()),
            self.a.seed,
            self.b.seed,
            self.a.nrows(),
            self.a.nnz(),
            self.b.nnz(),
            self.flops,
            self.expected.c.nnz(),
            self.expected.c.byte_size()
        )
    }
}

/// Compute the expected output of `A × B` with a cold `hh_cpu` under the
/// default configuration and check it against the serial reference: the
/// sparsity pattern exactly, the values within tolerance.
pub fn expect(a: Operand, b: Operand) -> Result<Case, String> {
    let mut ctx = HeteroContext::scaled(a.scale);
    let expected = hh_cpu(&mut ctx, &a.matrix, &b.matrix, &HhCpuConfig::default());
    check_against_reference(&expected.c, &a.matrix, &b.matrix)
        .map_err(|e| format!("{}: {e}", a.label))?;
    let flops = reference::flops(&a.matrix, &b.matrix);
    Ok(Case {
        a,
        b,
        expected,
        flops,
    })
}

/// The self-product case `A × A` (one matrix, so the engine's self-product
/// paths fire).
pub fn expect_square(a: Operand) -> Result<Case, String> {
    let b = a.clone();
    expect(a, b)
}

pub fn check_against_reference(
    c: &CsrMatrix<f64>,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
) -> Result<(), String> {
    let want = reference::spmm_rowrow(a, b).map_err(|e| e.to_string())?;
    if c.shape() != want.shape() || c.indptr() != want.indptr() || c.indices() != want.indices() {
        return Err("sparsity pattern differs from the Gustavson reference".into());
    }
    if !c.approx_eq(&want, RTOL, ATOL) {
        return Err("values differ from the Gustavson reference".into());
    }
    Ok(())
}

fn same_profile(a: &PhaseBreakdown, b: &PhaseBreakdown) -> bool {
    profile_fingerprint(a) == profile_fingerprint(b)
}

/// Bit-for-bit equality of an engine output with the expected one: C, the
/// simulated profile, thresholds, `hd_rows` and `tuples_merged`.
pub fn same_output(got: &SpmmOutput<f64>, want: &SpmmOutput<f64>) -> bool {
    got.c == want.c
        && got.c.values().iter().map(|v| v.to_bits()).eq(want
            .c
            .values()
            .iter()
            .map(|v| v.to_bits()))
        && same_profile(&got.profile, &want.profile)
        && got.threshold_a == want.threshold_a
        && got.threshold_b == want.threshold_b
        && got.hd_rows_a == want.hd_rows_a
        && got.hd_rows_b == want.hd_rows_b
        && got.tuples_merged == want.tuples_merged
}

/// The fingerprint fields a serve reply must carry for `want`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyPrint {
    pub c_hash: String,
    pub profile_bits: String,
    pub threshold_a: usize,
    pub threshold_b: usize,
    pub tuples_merged: usize,
}

impl ReplyPrint {
    pub fn of(out: &SpmmOutput<f64>) -> Self {
        Self {
            c_hash: hex64(out.c.content_hash()),
            profile_bits: hex64(profile_fingerprint(&out.profile)),
            threshold_a: out.threshold_a,
            threshold_b: out.threshold_b,
            tuples_merged: out.tuples_merged,
        }
    }
}
