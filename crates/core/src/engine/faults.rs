//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] scripts failures — panics, latency spikes, transient errors — at
//! chosen *call indices* of named [`FaultSite`]s, so a test can make exactly the k-th
//! kernel call of a run explode and prove the blast radius: the failed request resolves
//! to [`ServingError::KernelPanicked`](super::ServingError::KernelPanicked), every
//! other request in the window completes bitwise-identically, and no handle is ever
//! lost. Plans are deterministic by construction: triggers are either placed explicitly
//! ([`fail_at`](FaultPlan::fail_at)) or drawn from a seeded generator
//! ([`seeded_faults`](FaultPlan::seeded_faults)), and call indices advance in program
//! order, so the same plan over the same workload injects the same faults every run.
//!
//! Two injection surfaces share one plan:
//!
//! * [`FaultyBackend`] wraps any [`GemmBackend`] and trips [`FaultSite::Gemm`] once per
//!   whole-operand kernel entry (`gemm_into` / `gemm_multi_into`). Install it with
//!   [`EngineBuilder::backend`](super::EngineBuilder::backend); wrap the *same* inner
//!   backend with an empty plan to build the fault-free bitwise reference.
//! * Engine **failpoints**: [`EngineBuilder::fault_plan`](super::EngineBuilder::fault_plan)
//!   attaches a plan the engine consults at [`FaultSite::Decompose`] (entering a
//!   decomposition: an inline operand's cache miss or a deploy's band) and the serving dispatcher at [`FaultSite::WindowDispatch`]
//!   (a window handed to the batch executor). At these infallible sites a
//!   [`FaultKind::TransientError`] escalates to a panic, which the same per-request
//!   isolation path contains.
//!
//! Production builds carry only an `Option` check per site when no plan is attached.
//!
//! Beside them, [`LatchedBackend`] holds kernels instead of failing them: a test opens a
//! window, waits until its kernel has started, and knows for certain that the window is
//! executing — where a [`FaultKind::Delay`] only sleeps and leaves that to timing.

use super::sync::{lock_or_panic, wait_or_panic};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tasd_tensor::backend::{GemmBackend, GemmOperand};
use tasd_tensor::{Matrix, Result, TensorError};

/// What an armed trigger does when its call index comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (the payload names the site and index).
    Panic,
    /// Sleep for the given duration, then proceed normally — a latency spike.
    Delay(Duration),
    /// Return a transient error from the site. At infallible failpoints this
    /// escalates to a panic (see the [module docs](self)).
    TransientError,
}

/// A named injection point. Call indices count per site, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One whole-operand kernel entry of a [`FaultyBackend`] (`gemm_into` or
    /// `gemm_multi_into`).
    Gemm,
    /// The engine entering a decomposition: an inline operand's cache miss, or a band a
    /// deploy prepares.
    Decompose,
    /// The serving dispatcher handing a closed window to the batch executor.
    WindowDispatch,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Gemm => write!(f, "gemm"),
            FaultSite::Decompose => write!(f, "decompose"),
            FaultSite::WindowDispatch => write!(f, "window-dispatch"),
        }
    }
}

/// One fault the plan actually injected, from [`FaultPlan::injected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Where it fired.
    pub site: FaultSite,
    /// The per-site call index it fired at.
    pub index: u64,
    /// What it did.
    pub kind: FaultKind,
}

#[derive(Default)]
struct FaultState {
    /// Calls observed so far, per site (the next call at a site gets this index).
    counts: HashMap<FaultSite, u64>,
    /// Armed triggers by (site, call index).
    triggers: HashMap<(FaultSite, u64), FaultKind>,
    /// Every trigger that has fired, in firing order.
    injected: Vec<FaultRecord>,
}

/// A seeded, deterministic fault script shared by every injection surface of a run.
///
/// Build one (empty = injects nothing), arm triggers with [`fail_at`](Self::fail_at) /
/// [`seeded_faults`](Self::seeded_faults), and hand clones of one `Arc` to a
/// [`FaultyBackend`] and/or [`EngineBuilder::fault_plan`](super::EngineBuilder::fault_plan).
/// After the run, [`injected`](Self::injected) reports exactly what fired.
#[derive(Default)]
pub struct FaultPlan {
    state: Mutex<FaultState>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_or_panic(&self.state, "fault plan");
        f.debug_struct("FaultPlan")
            .field("triggers", &state.triggers.len())
            .field("injected", &state.injected.len())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan: every site passes through untouched. This is the fault-free
    /// reference configuration — same wrapper overhead, no triggers.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `kind` at the `index`-th call of `site` (builder-style).
    #[must_use]
    pub fn fail_at(self, site: FaultSite, index: u64, kind: FaultKind) -> Self {
        {
            let mut state = lock_or_panic(&self.state, "fault plan");
            state.triggers.insert((site, index), kind);
        }
        self
    }

    /// Arms `kind` at `count` distinct call indices of `site`, drawn deterministically
    /// from `seed` out of `0..universe` (builder-style). The same seed always picks the
    /// same indices; [`chosen`](Self::chosen) reports them.
    #[must_use]
    pub fn seeded_faults(
        self,
        site: FaultSite,
        kind: FaultKind,
        count: usize,
        universe: u64,
        seed: u64,
    ) -> Self {
        let picks = pick_distinct(seed, count.min(universe as usize), universe);
        {
            let mut state = lock_or_panic(&self.state, "fault plan");
            for index in picks {
                state.triggers.insert((site, index), kind);
            }
        }
        self
    }

    /// The call indices armed at `site`, sorted ascending.
    pub fn chosen(&self, site: FaultSite) -> Vec<u64> {
        let state = lock_or_panic(&self.state, "fault plan");
        let mut picks: Vec<u64> = state
            .triggers
            .keys()
            .filter(|(s, _)| *s == site)
            .map(|&(_, i)| i)
            .collect();
        picks.sort_unstable();
        picks
    }

    /// Calls observed at `site` so far.
    pub fn calls(&self, site: FaultSite) -> u64 {
        lock_or_panic(&self.state, "fault plan")
            .counts
            .get(&site)
            .copied()
            .unwrap_or(0)
    }

    /// Every fault that has fired, in firing order.
    pub fn injected(&self) -> Vec<FaultRecord> {
        lock_or_panic(&self.state, "fault plan").injected.clone()
    }

    /// Registers one call at `site` and executes its trigger, if armed: panics for
    /// [`FaultKind::Panic`], sleeps for [`FaultKind::Delay`], returns `Err` for
    /// [`FaultKind::TransientError`]. The plan's lock is released before the action, so
    /// an injected panic never poisons the plan.
    // lint: hot-path
    pub fn trip(&self, site: FaultSite) -> Result<()> {
        let fired: Option<FaultRecord> = {
            let mut state = lock_or_panic(&self.state, "fault plan");
            let counter = state.counts.entry(site).or_insert(0);
            let index = *counter;
            *counter += 1;
            let kind = state.triggers.get(&(site, index)).copied();
            kind.map(|kind| {
                let record = FaultRecord { site, index, kind };
                state.injected.push(record);
                record
            })
        };
        match fired {
            None => Ok(()),
            Some(FaultRecord { index, kind, .. }) => match kind {
                // lint: allow(panic): firing is the injected fault itself — the
                // serving layer's isolation converts it into KernelPanicked
                FaultKind::Panic => panic!("injected fault: panic at {site}[{index}]"),
                FaultKind::Delay(d) => {
                    std::thread::sleep(d);
                    Ok(())
                }
                FaultKind::TransientError => Err(TensorError::CorruptCompressed(format!(
                    "injected fault: transient error at {site}[{index}]"
                ))),
            },
        }
    }
}

/// `count` distinct values in `0..universe`, deterministic in `seed` (splitmix64 over a
/// partial Fisher–Yates of the index range).
fn pick_distinct(seed: u64, count: usize, universe: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..universe).collect();
    let mut rng = seed;
    let mut picks = Vec::with_capacity(count);
    for _ in 0..count {
        if pool.is_empty() {
            break;
        }
        rng = splitmix64(rng);
        let at = (rng % pool.len() as u64) as usize;
        picks.push(pool.swap_remove(at));
    }
    picks
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`GemmBackend`] decorator that trips [`FaultSite::Gemm`] once per whole-operand
/// kernel entry, then delegates to the wrapped backend. Row-block sub-calls
/// (`gemm_rows_into`) delegate without tripping — faults inject at whole-call
/// granularity so call indices are placement-independent.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: std::sync::Arc<dyn GemmBackend>,
    plan: std::sync::Arc<FaultPlan>,
}

impl FaultyBackend {
    /// Wraps `inner`, tripping `plan` at every kernel entry.
    pub fn wrap(inner: std::sync::Arc<dyn GemmBackend>, plan: std::sync::Arc<FaultPlan>) -> Self {
        FaultyBackend { inner, plan }
    }
}

impl GemmBackend for FaultyBackend {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn gemm_into(&self, lhs: &dyn GemmOperand, b: &Matrix, c: &mut Matrix) -> Result<()> {
        self.plan.trip(FaultSite::Gemm)?;
        self.inner.gemm_into(lhs, b, c)
    }

    fn gemm_rows_into(
        &self,
        lhs: &dyn GemmOperand,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
    ) {
        self.inner.gemm_rows_into(lhs, b, r0, r1, c_rows, n_cols);
    }

    fn gemm_multi_into(
        &self,
        lhs: &dyn GemmOperand,
        panels: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<()> {
        self.plan.trip(FaultSite::Gemm)?;
        self.inner.gemm_multi_into(lhs, panels, outs)
    }

    fn cost_hint(&self, lhs: &dyn GemmOperand, n_cols: usize) -> tasd_tensor::backend::CostHint {
        self.inner.cost_hint(lhs, n_cols)
    }
}

/// A [`GemmBackend`] decorator that holds kernels on a latch the test releases: each
/// kernel entry (`gemm_into`, `gemm_multi_into`, and the row-block `gemm_rows_into`
/// that tiled GEMMs and a generation's bands run through) marks the latch as started,
/// blocks until [`release`](Self::release), then delegates to the wrapped backend.
///
/// With [`wait_started`](Self::wait_started), a test knows a window is executing — not
/// merely that it probably started — so what arrives meanwhile, and which window it
/// joins, is deterministic. Release the latch before dropping anything that joins the
/// blocked thread.
#[derive(Debug)]
pub struct LatchedBackend {
    inner: Arc<dyn GemmBackend>,
    latch: Mutex<LatchState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct LatchState {
    /// Whether a kernel entry has started, held or passed.
    started: bool,
    /// Whether [`LatchedBackend::release`] has opened the latch.
    released: bool,
}

impl LatchedBackend {
    /// Wraps `inner` behind a closed latch.
    pub fn wrap(inner: Arc<dyn GemmBackend>) -> Self {
        LatchedBackend {
            inner,
            latch: Mutex::new(LatchState::default()),
            changed: Condvar::new(),
        }
    }

    /// Blocks until a kernel entry has started.
    pub fn wait_started(&self) {
        let mut latch = lock_or_panic(&self.latch, "backend latch");
        while !latch.started {
            latch = wait_or_panic(&self.changed, latch, "backend latch");
        }
    }

    /// Opens the latch for good: held kernels proceed and later ones pass straight
    /// through.
    pub fn release(&self) {
        lock_or_panic(&self.latch, "backend latch").released = true;
        self.changed.notify_all();
    }

    /// Marks a kernel entry as started, then blocks while the latch is closed.
    fn enter(&self) {
        let mut latch = lock_or_panic(&self.latch, "backend latch");
        latch.started = true;
        self.changed.notify_all();
        while !latch.released {
            latch = wait_or_panic(&self.changed, latch, "backend latch");
        }
    }
}

impl GemmBackend for LatchedBackend {
    fn name(&self) -> &'static str {
        "latched"
    }

    fn gemm_into(&self, lhs: &dyn GemmOperand, b: &Matrix, c: &mut Matrix) -> Result<()> {
        self.enter();
        self.inner.gemm_into(lhs, b, c)
    }

    fn gemm_rows_into(
        &self,
        lhs: &dyn GemmOperand,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
    ) {
        self.enter();
        self.inner.gemm_rows_into(lhs, b, r0, r1, c_rows, n_cols);
    }

    fn gemm_multi_into(
        &self,
        lhs: &dyn GemmOperand,
        panels: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<()> {
        self.enter();
        self.inner.gemm_multi_into(lhs, panels, outs)
    }

    fn cost_hint(&self, lhs: &dyn GemmOperand, n_cols: usize) -> tasd_tensor::backend::CostHint {
        self.inner.cost_hint(lhs, n_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use tasd_tensor::backend::DenseBackend;
    use tasd_tensor::MatrixGenerator;

    #[test]
    fn empty_plan_passes_every_call_through() {
        let plan = FaultPlan::new();
        for _ in 0..10 {
            plan.trip(FaultSite::Gemm).unwrap();
        }
        assert_eq!(plan.calls(FaultSite::Gemm), 10);
        assert!(plan.injected().is_empty());
    }

    #[test]
    fn explicit_trigger_fires_at_its_index_only() {
        let plan = FaultPlan::new().fail_at(FaultSite::Gemm, 2, FaultKind::TransientError);
        assert!(plan.trip(FaultSite::Gemm).is_ok());
        assert!(plan.trip(FaultSite::Gemm).is_ok());
        assert!(plan.trip(FaultSite::Gemm).is_err());
        assert!(plan.trip(FaultSite::Gemm).is_ok());
        assert_eq!(plan.injected().len(), 1);
        assert_eq!(plan.injected()[0].index, 2);
    }

    #[test]
    fn panic_trigger_panics_and_does_not_poison_the_plan() {
        let plan = FaultPlan::new().fail_at(FaultSite::Decompose, 0, FaultKind::Panic);
        let result = catch_unwind(AssertUnwindSafe(|| plan.trip(FaultSite::Decompose)));
        assert!(result.is_err());
        // The plan survives its own panic: counting continues past the trigger.
        assert!(plan.trip(FaultSite::Decompose).is_ok());
        assert_eq!(plan.calls(FaultSite::Decompose), 2);
    }

    #[test]
    fn seeded_picks_are_deterministic_and_distinct() {
        let a = FaultPlan::new().seeded_faults(FaultSite::Gemm, FaultKind::Panic, 3, 16, 42);
        let b = FaultPlan::new().seeded_faults(FaultSite::Gemm, FaultKind::Panic, 3, 16, 42);
        let picks = a.chosen(FaultSite::Gemm);
        assert_eq!(picks, b.chosen(FaultSite::Gemm), "same seed, same picks");
        assert_eq!(picks.len(), 3);
        assert!(picks.windows(2).all(|w| w[0] < w[1]), "distinct + sorted");
        assert!(picks.iter().all(|&i| i < 16));
        let c = FaultPlan::new().seeded_faults(FaultSite::Gemm, FaultKind::Panic, 3, 16, 43);
        assert_ne!(picks, c.chosen(FaultSite::Gemm), "different seed differs");
    }

    #[test]
    fn faulty_backend_delegates_bitwise_when_unarmed() {
        let mut gen = MatrixGenerator::seeded(7);
        let a = gen.sparse_normal(16, 16, 0.5);
        let b = gen.normal(16, 4, 0.0, 1.0);
        let inner: Arc<dyn GemmBackend> = Arc::new(DenseBackend::default());
        let faulty = FaultyBackend::wrap(Arc::clone(&inner), Arc::new(FaultPlan::new()));
        let mut c_ref = Matrix::zeros(16, 4);
        inner.gemm_into(&a, &b, &mut c_ref).unwrap();
        let mut c = Matrix::zeros(16, 4);
        faulty.gemm_into(&a, &b, &mut c).unwrap();
        assert_eq!(c, c_ref);
    }
}
