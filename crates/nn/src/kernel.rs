//! Blocked, numerically-fixed matmul kernels.
//!
//! Every dense product in the autodiff substrate funnels through the
//! three GEMM entry points here ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]).
//! All implementations — the scalar reference, the blocked kernel, and
//! the row-sharded parallel kernel — honor one **canonical summation
//! order** per output element:
//!
//! ```text
//! out[i][j] = (((init + t_0) + t_1) + … + t_{k-1}) * scale
//! ```
//!
//! where `init` is `0.0` (or `bias[j]` for the fused affine form), the
//! terms `t_p = a_term(p) · b_term(p)` are added in strictly ascending
//! `p`, each addition is a single `f32` operation, and the trailing
//! `* scale` multiply is applied only when `scale != 1.0`. f32 addition
//! is deterministic for a fixed operand sequence, so any two
//! implementations that follow this contract produce **bitwise
//! identical** outputs — blocking over panels and sharding disjoint row
//! ranges across threads reorder the *iteration*, never the
//! per-element operand sequence. This is the same contract as the CEM
//! ordered chunk merge (DESIGN.md §8), pushed down into the kernels.
//!
//! There is deliberately **no zero-skip**: the historical
//! `a == 0.0 → continue` shortcut dropped the `0·x` term entirely,
//! which silently swallowed non-finite RHS values (`0·NaN` must be
//! `NaN`, `0·∞` must be `NaN`) and could flip `-0.0` sums. A kernel
//! that hides NaNs defeats the training loop's non-finite rollback
//! guard — exactly the "ML silently violating known semantics" failure
//! mode this repo exists to close. NaN outputs are rewritten to one
//! canonical quiet NaN in every kernel's epilogue, so the identity holds
//! bit for bit even where the hardware would pick different NaN payloads.
//!
//! The active implementation is selected per *thread* via
//! [`with_mode`]; worker threads spawned by the vendored rayon start at
//! the default ([`KernelMode::Blocked`]), so a scalar-reference
//! measurement is taken with serial execution on the calling thread.

use fmml_obs::Counter;
use std::cell::Cell;

/// GEMM calls dispatched (all three shapes, all modes).
static CALLS: Counter = Counter::new("nn.matmul.calls");
/// Multiply-accumulate terms summed (`m·k·n` per call).
static FMAS: Counter = Counter::new("nn.matmul.fmas");
/// Calls answered by the scalar reference implementation.
static REFERENCE_CALLS: Counter = Counter::new("nn.matmul.reference_calls");
/// Calls whose rows were sharded across rayon workers.
static PARALLEL_CALLS: Counter = Counter::new("nn.matmul.parallel_calls");
/// Row shards spawned by parallel calls.
static PARALLEL_SHARDS: Counter = Counter::new("nn.matmul.parallel_shards");

/// Which kernel implementation this thread uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Naive scalar triple loop — the ground-truth implementation of
    /// the canonical summation order. Also disables tape buffer reuse
    /// so benchmarks can reproduce the pre-kernel substrate honestly.
    Reference,
    /// Panel-blocked serial kernel (the default).
    #[default]
    Blocked,
    /// Blocked kernel plus row-range sharding across rayon workers for
    /// products above [`PAR_MIN_FMAS`]. Bitwise identical to the other
    /// two modes by the summation-order contract.
    BlockedParallel,
}

thread_local! {
    static MODE: Cell<KernelMode> = const { Cell::new(KernelMode::Blocked) };
}

/// Run `f` with this thread's kernel mode set to `mode`, restoring the
/// previous mode on exit (including unwinds).
pub fn with_mode<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    struct Restore(KernelMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE.set(self.0);
        }
    }
    let _restore = Restore(MODE.replace(mode));
    f()
}

/// The kernel mode active on this thread.
pub fn current_mode() -> KernelMode {
    MODE.get()
}

/// Per-element init/epilogue of a GEMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOpts<'a> {
    /// Row-broadcast accumulator init: `out[i][j]` starts at `bias[j]`
    /// instead of `0.0` (the fused affine form `x·W + b`).
    pub bias: Option<&'a [f32]>,
    /// Epilogue multiplier, applied once per element **only when it is
    /// not exactly `1.0`** (so the common case adds no op). `None`
    /// means 1.0.
    pub scale: Option<f32>,
}

/// B-panel rows kept L1-resident by the blocked NN kernel (bytes).
const PANEL_BYTES: usize = 16 * 1024;
/// Minimum `m·k·n` before `BlockedParallel` shards rows across
/// threads; below this the spawn/copy overhead dominates.
pub const PAR_MIN_FMAS: usize = 1 << 18;

#[inline]
fn record(m: usize, k: usize, n: usize) {
    CALLS.inc();
    FMAS.add((m * k * n) as u64);
}

/// Bit pattern every NaN output is rewritten to (positive quiet NaN).
const CANONICAL_NAN_BITS: u32 = 0x7fc0_0000;

/// Shared per-element epilogue of every kernel: the optional `scale`
/// multiply, then NaN canonicalization. Rust leaves the sign and payload
/// of a NaN produced by arithmetic unspecified, and an optimizing build
/// may commute the operands of `acc + a·b`, so two kernels that follow
/// the summation order can still differ in *which* NaN they return
/// (x86 yields `0xffc00000` for `∞ − ∞` but propagates the first NaN
/// operand of an addition). Rewriting through the integer domain keeps
/// the bitwise-identity contract over NaN outputs too.
#[inline]
fn epilogue(out: &mut [f32], opts: &GemmOpts) {
    if let Some(s) = opts.scale {
        if s != 1.0 {
            for v in out.iter_mut() {
                *v *= s;
            }
        }
    }
    for v in out.iter_mut() {
        if v.is_nan() {
            *v = f32::from_bits(CANONICAL_NAN_BITS);
        }
    }
}

#[inline]
fn init_row(row: &mut [f32], bias: Option<&[f32]>) {
    match bias {
        Some(b) => row.copy_from_slice(b),
        None => row.fill(0.0),
    }
}

// ------------------------------------------------------------------ NN

/// `out[m,n] = (A[m,k] × B[k,n] + bias) · scale`, canonical order.
pub fn gemm_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: GemmOpts,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if let Some(bias) = opts.bias {
        debug_assert_eq!(bias.len(), n);
    }
    record(m, k, n);
    match current_mode() {
        KernelMode::Reference => {
            REFERENCE_CALLS.inc();
            reference_nn(a, b, out, m, k, n, &opts);
        }
        KernelMode::Blocked => blocked_nn(a, b, out, m, k, n, &opts),
        KernelMode::BlockedParallel => {
            let handled = shard_rows(out, m, n, m * k * n, &|lo, hi, chunk| {
                blocked_nn(&a[lo * k..hi * k], b, chunk, hi - lo, k, n, &opts)
            });
            if !handled {
                blocked_nn(a, b, out, m, k, n, &opts);
            }
        }
    }
}

fn reference_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: &GemmOpts,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = opts.bias.map_or(0.0, |bias| bias[j]);
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    epilogue(out, opts);
}

fn blocked_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: &GemmOpts,
) {
    // Init pass (bias or zero), then accumulate B panels of KC rows that
    // stay L1-resident while a block of A rows streams over them. The
    // j-inner axpy loop vectorizes (independent accumulators per j);
    // each out[i][j] still sees terms in ascending p.
    for i in 0..m {
        init_row(&mut out[i * n..(i + 1) * n], opts.bias);
    }
    if k > 0 && n > 0 {
        let kc = (PANEL_BYTES / 4 / n).clamp(1, k.max(1));
        let mut pb = 0;
        while pb < k {
            let pe = (pb + kc).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for p in pb..pe {
                    let av = arow[p];
                    let brow = &b[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            pb = pe;
        }
    }
    epilogue(out, opts);
}

// ------------------------------------------------------------------ NT

/// `out[m,n] = (A[m,k] × B[n,k]ᵀ + bias) · scale` — `B` is given
/// row-major `[n,k]`, so both operands of every dot product are
/// contiguous and no transpose is ever materialized (the
/// transpose-cached form the backward pass uses for `dA = G·Bᵀ`).
pub fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: GemmOpts,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    record(m, k, n);
    match current_mode() {
        KernelMode::Reference => {
            REFERENCE_CALLS.inc();
            reference_nt(a, b, out, m, k, n, &opts);
        }
        KernelMode::Blocked => blocked_nt(a, b, out, m, k, n, &opts),
        KernelMode::BlockedParallel => {
            let handled = shard_rows(out, m, n, m * k * n, &|lo, hi, chunk| {
                blocked_nt(&a[lo * k..hi * k], b, chunk, hi - lo, k, n, &opts)
            });
            if !handled {
                blocked_nt(a, b, out, m, k, n, &opts);
            }
        }
    }
}

fn reference_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: &GemmOpts,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = opts.bias.map_or(0.0, |bias| bias[j]);
            for p in 0..k {
                acc += a[i * k + p] * b[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    epilogue(out, opts);
}

fn blocked_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: &GemmOpts,
) {
    // Process J-blocks of B rows that fit in L1; within a block, four
    // output columns run as four *independent* accumulator chains (ILP
    // without reassociating any single element's sum).
    let jb = if k == 0 {
        n.max(1)
    } else {
        (PANEL_BYTES / 4 / k.max(1)).clamp(1, n.max(1))
    };
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + jb).min(n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let mut j = j0;
            while j + 4 <= j1 {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = match opts.bias {
                    Some(bias) => (bias[j], bias[j + 1], bias[j + 2], bias[j + 3]),
                    None => (0.0, 0.0, 0.0, 0.0),
                };
                for p in 0..k {
                    let av = arow[p];
                    s0 += av * b0[p];
                    s1 += av * b1[p];
                    s2 += av * b2[p];
                    s3 += av * b3[p];
                }
                out[i * n + j] = s0;
                out[i * n + j + 1] = s1;
                out[i * n + j + 2] = s2;
                out[i * n + j + 3] = s3;
                j += 4;
            }
            while j < j1 {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = opts.bias.map_or(0.0, |bias| bias[j]);
                for p in 0..k {
                    acc += arow[p] * brow[p];
                }
                out[i * n + j] = acc;
                j += 1;
            }
        }
        j0 = j1;
    }
    epilogue(out, opts);
}

// ------------------------------------------------------------------ TN

/// `out[m,n] = (A[t,m]ᵀ × B[t,n] + bias) · scale` — `A` is given
/// row-major `[t,m]` (its transpose is taken logically), so the
/// backward pass computes `dW = Xᵀ·G` without materializing `Xᵀ`.
/// Summed over `t` in ascending order via outer-product accumulation;
/// serial in every mode (the output is small in the workloads here —
/// sharding its rows would stride-scan `A` for no win).
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    t: usize,
    m: usize,
    n: usize,
    opts: GemmOpts,
) {
    debug_assert_eq!(a.len(), t * m);
    debug_assert_eq!(b.len(), t * n);
    debug_assert_eq!(out.len(), m * n);
    record(m, t, n);
    match current_mode() {
        KernelMode::Reference => {
            REFERENCE_CALLS.inc();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = opts.bias.map_or(0.0, |bias| bias[j]);
                    for p in 0..t {
                        acc += a[p * m + i] * b[p * n + j];
                    }
                    out[i * n + j] = acc;
                }
            }
            epilogue(out, &opts);
        }
        KernelMode::Blocked | KernelMode::BlockedParallel => {
            for i in 0..m {
                init_row(&mut out[i * n..(i + 1) * n], opts.bias);
            }
            for p in 0..t {
                let arow = &a[p * m..(p + 1) * m];
                let brow = &b[p * n..(p + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            epilogue(out, &opts);
        }
    }
}

// ------------------------------------------------------------- parallel

/// Shard the `m` output rows of a GEMM into contiguous ranges, one per
/// rayon worker, when the product is big enough to amortize the spawn
/// and copy-back. Each shard computes its rows exactly as the serial
/// kernel would (per-element operand sequences are row-local), so the
/// spliced result is bitwise identical to the serial run. Respects the
/// vendored rayon's `with_max_threads` cap. Returns `false` (without
/// touching `out`) when the product is too small to shard — the caller
/// falls back to the serial kernel.
fn shard_rows(
    out: &mut [f32],
    m: usize,
    n: usize,
    fmas: usize,
    run_range: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) -> bool {
    let threads = parallel_threads(m);
    if fmas < PAR_MIN_FMAS || threads < 2 {
        return false;
    }
    let chunk_rows = m.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .map(|c| (c * chunk_rows, ((c + 1) * chunk_rows).min(m)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    PARALLEL_CALLS.inc();
    PARALLEL_SHARDS.add(ranges.len() as u64);
    use rayon::prelude::*;
    // Scope threads don't inherit thread-locals; re-install the trace
    // context per shard so GEMM shards show up under the caller's span.
    let ctx = fmml_obs::trace::current_context();
    let parts: Vec<Vec<f32>> = ranges
        .par_iter()
        .map(|&(lo, hi)| {
            fmml_obs::trace::with_context(ctx, || {
                let _s = fmml_obs::trace::span("nn.gemm_shard");
                let mut part = vec![0.0f32; (hi - lo) * n];
                run_range(lo, hi, &mut part);
                part
            })
        })
        .collect();
    for ((lo, hi), part) in ranges.into_iter().zip(parts) {
        out[lo * n..hi * n].copy_from_slice(&part);
    }
    true
}

/// Worker count a sharded call would use: the machine's parallelism
/// (at least 2, mirroring the vendored rayon — concurrency bugs must
/// surface even on 1-core runners), bounded by an installed
/// `with_max_threads` cap and the row count.
fn parallel_threads(rows: usize) -> usize {
    let cap = rayon::current_max_threads();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t = if cap > 0 { cap } else { hw.max(2) };
    t.min(rows)
}

/// Snapshot of the kernel counters (for benchmark deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    pub calls: u64,
    pub fmas: u64,
    pub reference_calls: u64,
    pub parallel_calls: u64,
    pub parallel_shards: u64,
}

/// Current cumulative kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        calls: CALLS.get(),
        fmas: FMAS.get(),
        reference_calls: REFERENCE_CALLS.get(),
        parallel_calls: PARALLEL_CALLS.get(),
        parallel_shards: PARALLEL_SHARDS.get(),
    }
}

impl std::ops::Sub for KernelStats {
    type Output = KernelStats;
    fn sub(self, rhs: KernelStats) -> KernelStats {
        KernelStats {
            calls: self.calls - rhs.calls,
            fmas: self.fmas - rhs.fmas,
            reference_calls: self.reference_calls - rhs.reference_calls,
            parallel_calls: self.parallel_calls - rhs.parallel_calls,
            parallel_shards: self.parallel_shards - rhs.parallel_shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dependency).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn run_all_modes(
        m: usize,
        _k: usize,
        n: usize,
        f: &dyn Fn(&mut [f32]),
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut r = vec![0.0; m * n];
        let mut bl = vec![0.0; m * n];
        let mut par = vec![0.0; m * n];
        with_mode(KernelMode::Reference, || f(&mut r));
        with_mode(KernelMode::Blocked, || f(&mut bl));
        with_mode(KernelMode::BlockedParallel, || f(&mut par));
        (r, bl, par)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn nn_known_values_and_bias_scale() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        gemm_nn(&a, &b, &mut out, 2, 2, 2, GemmOpts::default());
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        let bias = [1.0, -1.0];
        gemm_nn(
            &a,
            &b,
            &mut out,
            2,
            2,
            2,
            GemmOpts {
                bias: Some(&bias),
                scale: Some(2.0),
            },
        );
        assert_eq!(out, [40.0, 42.0, 88.0, 98.0]);
    }

    #[test]
    fn all_modes_bitwise_identical_across_shapes() {
        // Shapes straddle the panel size, the 4-wide NT unroll, and the
        // parallel threshold (the last via a tiny PAR_MIN override not
        // being available — exercised separately in the proptest suite
        // with large shapes).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 4),
            (17, 33, 9),
            (2, 300, 5),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = fill(m * k, 1 + (m * 31 + k * 7 + n) as u64);
            let b = fill(k * n, 99 + (m + k + n) as u64);
            let bt = fill(n * k, 7 + (m * k) as u64);
            let at = fill(k * m, 13 + n as u64);
            let bias = fill(n, 3);
            let opts = || GemmOpts {
                bias: Some(&bias),
                scale: Some(0.5),
            };
            let (r, bl, par) = run_all_modes(m, k, n, &|out| gemm_nn(&a, &b, out, m, k, n, opts()));
            assert_bits_eq(&r, &bl, "nn ref/blocked");
            assert_bits_eq(&r, &par, "nn ref/parallel");
            let (r, bl, par) =
                run_all_modes(m, k, n, &|out| gemm_nt(&a, &bt, out, m, k, n, opts()));
            assert_bits_eq(&r, &bl, "nt ref/blocked");
            assert_bits_eq(&r, &par, "nt ref/parallel");
            let (r, bl, par) =
                run_all_modes(m, k, n, &|out| gemm_tn(&at, &b, out, k, m, n, opts()));
            assert_bits_eq(&r, &bl, "tn ref/blocked");
            assert_bits_eq(&r, &par, "tn ref/parallel");
        }
    }

    #[test]
    fn zero_times_nan_propagates_in_every_mode() {
        // The historical zero-skip would silently output 0 here.
        let a = [0.0, 0.0];
        let b = [f32::NAN, 1.0, f32::INFINITY, 2.0];
        for mode in [
            KernelMode::Reference,
            KernelMode::Blocked,
            KernelMode::BlockedParallel,
        ] {
            with_mode(mode, || {
                let mut out = [0.0f32; 2];
                gemm_nn(&a, &b, &mut out, 1, 2, 2, GemmOpts::default());
                assert!(out[0].is_nan(), "{mode:?}: 0·NaN + 0·∞ must be NaN");
                assert!(out[1].is_nan() || out[1] == 0.0);
            });
        }
    }

    #[test]
    fn parallel_shards_fire_above_threshold() {
        // Needs >= 2 rows and fmas >= PAR_MIN_FMAS. 128×128×128 = 2M.
        let (m, k, n) = (128usize, 128usize, 128usize);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let before = stats();
        let mut serial = vec![0.0; m * n];
        with_mode(KernelMode::Blocked, || {
            gemm_nn(&a, &b, &mut serial, m, k, n, GemmOpts::default())
        });
        let mut par = vec![0.0; m * n];
        with_mode(KernelMode::BlockedParallel, || {
            gemm_nn(&a, &b, &mut par, m, k, n, GemmOpts::default())
        });
        assert_bits_eq(&serial, &par, "large nn");
        // Counters are global (other tests may run concurrently), so
        // assert monotone deltas rather than exact equality.
        let d = stats() - before;
        assert!(d.calls >= 2, "calls delta {}", d.calls);
        assert!(d.parallel_calls >= 1, "no parallel call recorded");
        assert!(d.parallel_shards >= d.parallel_calls);
        assert!(d.fmas >= 2 * (m * k * n) as u64);
    }

    #[test]
    fn mode_is_restored_on_unwind() {
        assert_eq!(current_mode(), KernelMode::Blocked);
        let r = std::panic::catch_unwind(|| with_mode(KernelMode::Reference, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(current_mode(), KernelMode::Blocked);
    }
}
