//! Batched serving: group, schedule, and execute many GEMM requests in one call.
//!
//! [`ExecutionEngine::submit`] is the serving seam layered on the engine: callers hand it
//! a whole batch of independent requests and get every result back at once, while the
//! engine exploits what the requests have in common. It is also the **window executor**
//! of the session layer — a [`ServingEngine`](super::ServingEngine) micro-batch window
//! is exactly one `submit` call whose batch the dispatcher assembled from concurrent
//! enqueues — so every contract below holds per window, and `submit` itself remains the
//! back-compat surface for callers that assemble their own batches (see the
//! [`serving` module](super::serving) for the lifecycle and the migration note).
//!
//! 1. **Grouping** — requests built by [`Generation::request`](super::Generation::request)
//!    carry their generation's prepared bands and group by generation: no fingerprint,
//!    no cache lookup, no decomposition. Every other request is *inline* and groups by
//!    *decomposed-operand fingerprint*: the key is `(operand fingerprint, operand shape,
//!    decomposition config)` — exactly the decomposition cache's key, with "no
//!    decomposition" as its own config value. Fingerprints come from the engine's
//!    per-allocation memo, so a warm stream never rescans its operands. Every inline
//!    group *prepares* its operand at most once per batch (and usually zero times, when
//!    the prepared cache entry is already resident — a warm batch performs zero
//!    decompositions, zero format conversions, and zero replans). Every group's
//!    right-hand panels are packed column-wise so one pass over the operand serves every
//!    member ([`pack_panels`](tasd_tensor::backend::pack_panels)).
//! 2. **Scheduling** — groups are admitted shortest-plan-first by their summed
//!    [`MatmulPlan`](super::MatmulPlan) cost estimates, with a fairness cap bounding how
//!    many slots any group can be overtaken by (see [`admission_order`]).
//! 3. **Telemetry** — [`BatchTelemetry`] reports per-group admission slots, queue delays,
//!    plan costs, and the decomposition-cache deltas (hits, misses, decompositions
//!    performed, bytes resident), so deployments can size `cache_capacity` from data.
//!
//! Packing never changes the math: each output column accumulates in the same order as a
//! one-at-a-time [`series_gemm`](ExecutionEngine::series_gemm) /
//! [`gemm`](ExecutionEngine::gemm) call, so `submit` results are bitwise identical to the
//! per-request path, under every admission ordering.

use super::deploy::Banded;
use super::prepared::PreparedSeries;
use super::{ExecutionEngine, MatmulPlan};
use crate::config::TasdConfig;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use tasd_tensor::backend::{pack_panels, unpack_panels};
use tasd_tensor::{Matrix, TensorError};

/// Default fairness cap: a group is admitted at most this many slots after its arrival
/// rank, however expensive its plan is (0 would mean strict FIFO).
pub const DEFAULT_FAIRNESS_CAP: usize = 8;

/// Why a request failed to produce an output — the serving layer's structured error
/// taxonomy (see the "Failure semantics" section of the [engine module docs](super)).
///
/// Every [`BatchResponse::output`] error is one of these; a failed request never
/// poisons its batch, its window, or the session. [`ShapeMismatch`](Self::ShapeMismatch)
/// renders identically to [`TensorError::ShapeMismatch`], so error text observed by
/// pre-existing callers is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServingError {
    /// The request's operand shapes are inconsistent; rejected at admission.
    ShapeMismatch {
        /// Operation that rejected the shapes.
        op: &'static str,
        /// Left-hand shape at the point of mismatch.
        lhs: (usize, usize),
        /// Right-hand shape at the point of mismatch.
        rhs: (usize, usize),
    },
    /// A kernel (or decomposition) panicked while executing this request's group. The
    /// payload is the panic message; only the panicking group fails — the rest of the
    /// window completes bitwise-identically.
    KernelPanicked {
        /// The panic's message payload (or a placeholder for non-string payloads).
        payload: String,
    },
    /// The request's deadline passed before its window executed.
    DeadlineExceeded,
    /// The session's bounded queue was full and the overload policy rejected this
    /// request at admission.
    QueueFull,
    /// The request was cancelled through [`ResponseHandle::cancel`](super::ResponseHandle::cancel)
    /// before its response was delivered.
    Cancelled,
    /// The session was shut down (or drained) before this request could be admitted.
    ShuttingDown,
    /// The underlying execution returned a (non-shape) tensor error.
    Execution(TensorError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Keep the exact TensorError::ShapeMismatch rendering: callers that matched
            // on the message before the ServingError migration still see the same text.
            ServingError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            ServingError::KernelPanicked { payload } => {
                write!(f, "kernel panicked while serving this request: {payload}")
            }
            ServingError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before execution")
            }
            ServingError::QueueFull => write!(f, "serving queue is full"),
            ServingError::Cancelled => write!(f, "request was cancelled"),
            ServingError::ShuttingDown => write!(f, "serving session is shutting down"),
            ServingError::Execution(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Execution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ServingError {
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                ServingError::ShapeMismatch { op, lhs, rhs }
            }
            other => ServingError::Execution(other),
        }
    }
}

/// Renders a panic payload for [`ServingError::KernelPanicked`]: the `&str` / `String`
/// message when the payload carries one (as `panic!` payloads do), a placeholder
/// otherwise.
pub(crate) fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One serving request: multiply (a possibly decomposed) `a` by `b`.
///
/// The operand is shared behind an [`Arc`] so a batch of requests against one weight
/// tensor carries one copy of it; `submit` additionally fingerprints each distinct `Arc`
/// only once. Requests with equal operand *content* (even behind different `Arc`s) still
/// land in the same group — the grouping key is the content fingerprint, not the pointer.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Left-hand operand. Requests in the same batch with identical `a` and `config`
    /// share one decomposition and one kernel pass.
    pub a: Arc<Matrix>,
    /// Right-hand panel (`a.cols() × width`).
    pub b: Matrix,
    /// Decomposition to apply to `a` before multiplying; `None` executes the exact GEMM.
    pub config: Option<TasdConfig>,
    /// Optional absolute deadline on the serving session's [`Clock`](super::Clock)
    /// timeline: if it passes before the request's window executes, the request resolves
    /// to [`ServingError::DeadlineExceeded`] instead of running. `None` (the default)
    /// never expires. Engine-level [`submit`](ExecutionEngine::submit) ignores
    /// deadlines — it has no clock; only the serving session enforces them.
    pub deadline: Option<Duration>,
    /// The prepared bands of the generation
    /// [`Generation::request`](super::Generation::request) built this request from. They
    /// execute only while `a` and `config` still name that generation's weights and
    /// configuration; replace either and the request runs as an inline operand.
    bands: Option<Arc<Banded>>,
}

impl BatchRequest {
    /// A request executing the TASD-approximated product `A·B` with `A` decomposed under
    /// `config` (through the engine's decomposition cache).
    pub fn decomposed(a: impl Into<Arc<Matrix>>, config: TasdConfig, b: Matrix) -> Self {
        BatchRequest {
            a: a.into(),
            b,
            config: Some(config),
            deadline: None,
            bands: None,
        }
    }

    /// A request against a named operand's generation, carrying its prepared bands.
    pub(crate) fn banded(operand: Arc<Banded>, b: Matrix) -> Self {
        BatchRequest {
            a: Arc::clone(&operand.matrix),
            b,
            config: Some(operand.config.clone()),
            deadline: None,
            bands: Some(operand),
        }
    }

    /// A request executing the exact (undecomposed) product `A·B`.
    pub fn dense(a: impl Into<Arc<Matrix>>, b: Matrix) -> Self {
        BatchRequest {
            a: a.into(),
            b,
            config: None,
            deadline: None,
            bands: None,
        }
    }

    /// Sets an absolute deadline (an instant on the serving session's clock, e.g.
    /// `session.now() + budget`). See [`deadline`](Self::deadline).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The engine's answer to one [`BatchRequest`], in the same position as its request.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// Index of the request this responds to (== its position in the submitted batch).
    /// 0 for responses fabricated outside any window (cancellation, expiry, shutdown).
    pub index: usize,
    /// The product, or the structured [`ServingError`] that failed the request.
    pub output: Result<Matrix, ServingError>,
    /// Arrival-ranked id of the group this request executed with (`None` if it failed).
    pub group: Option<usize>,
    /// Estimated effectual MACs of this request's plan (0 if it failed at admission).
    pub plan_cost: u64,
    /// Whether this request's decomposition was served from the cache. `false` for dense
    /// requests, for requests carrying a generation's bands (those never touch the
    /// cache), and for the request batch that actually performed the decomposition.
    pub cache_hit: bool,
}

impl BatchResponse {
    /// A failed response carrying `error` and no execution metadata — what cancellation,
    /// deadline expiry, queue rejection, shutdown, and panic containment deliver.
    pub(crate) fn failed(index: usize, error: ServingError) -> Self {
        BatchResponse {
            index,
            output: Err(error),
            group: None,
            plan_cost: 0,
            cache_hit: false,
        }
    }
}

/// Per-group serving telemetry (one entry per operand group, indexed by group id).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTelemetry {
    /// Content fingerprint of the group's shared operand (for a banded group, its
    /// generation's store fingerprint).
    pub fingerprint: u64,
    /// Request indices served by this group, in arrival order.
    pub members: Vec<usize>,
    /// Summed plan-cost estimate (effectual MACs) of the group's packed execution.
    pub plan_cost: u64,
    /// Execution slot the scheduler admitted this group at (0 = first).
    pub admitted_at: usize,
    /// Slots this group waited past its arrival rank (bounded by the fairness cap).
    pub queue_delay: usize,
    /// Whether this batch performed the group's decomposition (a cache miss). Always
    /// `false` for dense groups and banded groups (their bands were prepared at deploy).
    pub decomposed: bool,
    /// Whether the group's decomposition came out of the cache. Always `false` for
    /// dense groups and banded groups, which never look the cache up.
    pub cache_hit: bool,
}

/// Whole-batch serving telemetry from [`ExecutionEngine::submit_with_telemetry`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTelemetry {
    /// Requests submitted.
    pub requests: usize,
    /// Requests rejected at admission (per-request shape errors).
    pub rejected: usize,
    /// Requests that resolved to [`ServingError::KernelPanicked`] because their group's
    /// preparation or kernel pass panicked (contained per group; see the module docs).
    pub panicked: usize,
    /// Fairness cap the scheduler ran with.
    pub fairness_cap: usize,
    /// Per-group telemetry, indexed by arrival-ranked group id.
    pub groups: Vec<GroupTelemetry>,
    /// Decompositions actually performed during this batch (cache misses).
    pub decompositions: u64,
    /// Decomposition-cache hit delta over the batch.
    pub cache_hits: u64,
    /// Decomposition-cache miss delta over the batch.
    pub cache_misses: u64,
    /// Bytes resident in the decomposition cache after the batch.
    pub bytes_resident: usize,
}

impl BatchTelemetry {
    /// Largest queue delay any group experienced (what the fairness cap bounds).
    pub fn max_queue_delay(&self) -> usize {
        self.groups.iter().map(|g| g.queue_delay).max().unwrap_or(0)
    }

    /// Summed plan-cost estimate across every admitted group.
    pub fn total_plan_cost(&self) -> u64 {
        self.groups.iter().map(|g| g.plan_cost).sum()
    }

    /// Group ids in the order the scheduler executed them.
    pub fn admission_order(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.groups.len()).collect();
        ids.sort_by_key(|&g| self.groups[g].admitted_at);
        ids
    }
}

/// Shortest-plan-first admission order with a fairness cap.
///
/// `costs[i]` is the plan-cost estimate of entry `i`; arrival order is the index order.
/// The returned permutation admits the cheapest pending entry at every slot — stable for
/// equal costs (earlier arrival wins) — **except** when some pending entry has already
/// waited `fairness_cap` slots past its arrival rank, in which case the most overdue
/// entry is admitted instead. This bounds every entry's queue delay:
/// `position(i) ≤ i + fairness_cap`, so a cheap stream cannot starve behind a single
/// huge plan, and a huge plan cannot be deferred forever behind a cheap stream.
///
/// A cap of 0 degenerates to FIFO (arrival order); a cap of `costs.len()` or more never
/// binds and yields pure shortest-plan-first order.
// lint: hot-path, allow(indexing): every index here is drawn from 0..n with
// n == costs.len(), and the bookkeeping vectors are allocated at length n above
pub fn admission_order(costs: &[u64], fairness_cap: usize) -> Vec<usize> {
    let n = costs.len();
    // Stable shortest-plan-first: sort by (cost, arrival).
    let mut by_cost: Vec<usize> = (0..n).collect();
    by_cost.sort_by_key(|&i| (costs[i], i));
    let mut admitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for slot in 0..n {
        // At most one entry newly exhausts its slack per slot (arrivals are unique), so
        // admitting the most overdue entry first keeps every deadline.
        let overdue = (0..n).find(|&i| !admitted[i] && i.saturating_add(fairness_cap) <= slot);
        let next = overdue.unwrap_or_else(|| {
            *by_cost
                .iter()
                .find(|&&i| !admitted[i])
                // lint: allow(panic): n slots admit n entries, so some entry is
                // still pending at every slot of the loop
                .expect("one pending entry per remaining slot")
        });
        admitted[next] = true;
        order.push(next);
    }
    order
}

/// Grouping key.
#[derive(PartialEq, Eq, Hash)]
enum GroupKey {
    /// A generation's bands, by allocation.
    Banded(usize),
    /// An inline operand: content fingerprint, shape, decomposition config (`None` =
    /// exact GEMM) — the decomposition cache's key with "no decomposition" as its own
    /// value.
    Inline(u64, (usize, usize), Option<TasdConfig>),
}

/// How a group executes: a generation's bands, a prepared decomposition, or an exact
/// GEMM with a memoized plan.
enum GroupExec {
    /// Named group: the generation's prepared bands, run by band.
    Banded(Arc<Banded>),
    /// Decomposed group: the prepared series (obtained through the cache at costing
    /// time) and whether that lookup was a cache hit.
    Prepared {
        series: Arc<PreparedSeries>,
        cache_hit: bool,
    },
    /// Exact GEMM group: the memoized plan for the packed output width.
    Dense { plan: Arc<MatmulPlan> },
    /// The group's preparation (decomposition / planning) panicked: every member
    /// resolves to this error, and the group flows through scheduling with cost 0 so
    /// telemetry and admission invariants hold for the rest of the batch.
    Failed { error: ServingError },
}

/// A request group while the batch is still being assembled: one shared operand
/// (+ config), many right-hand panels. Costing consumes it into a [`CostedGroup`].
struct Group {
    members: Vec<usize>,
    fingerprint: u64,
    banded: Option<Arc<Banded>>,
}

/// One group's kernel pass result: the packed wide output plus (cache_hit, decomposed),
/// or the structured error that failed every member.
type GroupOutcome = std::result::Result<(Matrix, bool, bool), ServingError>;

/// A group after costing: the execution strategy is resolved and the summed plan cost is
/// known, so the schedule/execute loop never meets a half-built group.
struct CostedGroup {
    members: Vec<usize>,
    plan_cost: u64,
    fingerprint: u64,
    exec: GroupExec,
}

impl ExecutionEngine {
    /// Executes a batch of serving requests: groups them by decomposed-operand
    /// fingerprint, admits groups shortest-plan-first under the engine's fairness cap,
    /// decomposes each group's operand at most once (through the cache), and runs each
    /// group as one packed multi-RHS kernel pass. See the [`batch` module docs](self)
    /// for the full contract.
    ///
    /// Responses come back in request order; a request with inconsistent shapes gets an
    /// `Err` response without poisoning the rest of the batch.
    // lint: hot-path
    pub fn submit(&self, requests: Vec<BatchRequest>) -> Vec<BatchResponse> {
        self.submit_with_telemetry(requests).0
    }

    /// [`submit`](Self::submit), also returning the batch's [`BatchTelemetry`].
    ///
    /// Per-group counters ([`GroupTelemetry::decomposed`] / `cache_hit`) are read
    /// atomically with each lookup and are exact even under concurrent engine use; the
    /// batch-level `cache_hits`/`cache_misses` are deltas of the engine-wide stats, so
    /// concurrent traffic from other threads is included in them.
    // lint: hot-path, allow(indexing): request indices come from enumerate() over the
    // batch, group ids from the group vector's own length, and the member_cost /
    // responses / telemetry vectors are all allocated at those exact lengths
    pub fn submit_with_telemetry(
        &self,
        requests: Vec<BatchRequest>,
    ) -> (Vec<BatchResponse>, BatchTelemetry) {
        let stats_before = self.cache_stats();
        let n = requests.len();
        let mut responses: Vec<Option<BatchResponse>> = (0..n).map(|_| None).collect();

        // ---- Group by (fingerprint, shape, config) -----------------------------------
        let mut group_ids: HashMap<GroupKey, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut rejected = 0usize;
        for (i, req) in requests.iter().enumerate() {
            if req.b.rows() != req.a.cols() {
                rejected += 1;
                responses[i] = Some(BatchResponse {
                    index: i,
                    output: Err(ServingError::ShapeMismatch {
                        op: "batch request",
                        lhs: req.a.shape(),
                        rhs: req.b.shape(),
                    }),
                    group: None,
                    plan_cost: 0,
                    cache_hit: false,
                });
                continue;
            }
            let banded = req.bands.as_ref().filter(|bands| bands.serves(req));
            let (key, fingerprint) = match banded {
                Some(bands) => (
                    GroupKey::Banded(Arc::as_ptr(bands) as usize),
                    bands.fingerprint,
                ),
                None => {
                    // The engine-level memo fingerprints each distinct allocation once
                    // *ever* (not once per batch): a warm serving stream performs zero
                    // content scans.
                    let fingerprint = self.fingerprint_of(&req.a);
                    let key = GroupKey::Inline(fingerprint, req.a.shape(), req.config.clone());
                    (key, fingerprint)
                }
            };
            let gid = *group_ids.entry(key).or_insert_with(|| {
                groups.push(Group {
                    members: Vec::new(),
                    fingerprint,
                    banded: banded.cloned(),
                });
                groups.len() - 1
            });
            groups[gid].members.push(i);
        }

        // ---- Prepare and cost every group (no operand scans on the warm path) --------
        // Banded groups arrive prepared. Inline decomposed groups are prepared here,
        // through the cache: the decomposition and format packing happen at most once
        // per group per batch (and zero times warm); costs come from the prepared terms'
        // exact non-zero counts. Dense groups cost from their memoized plan's density —
        // the non-zero scan runs only on the first batch that sees the operand content.
        let mut member_cost = vec![0u64; n];
        let costed: Vec<CostedGroup> = groups
            .into_iter()
            .map(|group| {
                let first = &requests[group.members[0]];
                let a = &first.a;
                let packed_width: usize = group.members.iter().map(|&i| requests[i].b.cols()).sum();
                // A panicking decomposition (or planner) fails only its own group: the
                // group becomes GroupExec::Failed and still flows through scheduling,
                // so every other group — and every telemetry invariant — is untouched.
                let prep = catch_unwind(AssertUnwindSafe(|| -> (u64, GroupExec) {
                    match (&group.banded, &first.config) {
                        // Decomposition is row-local, so the summed band nnz equals
                        // the whole operand's and the cost estimate is unchanged.
                        (Some(bands), _) => {
                            (bands.nnz() as u64, GroupExec::Banded(Arc::clone(bands)))
                        }
                        (None, Some(cfg)) => {
                            let (series, cache_hit) =
                                self.prepare_with_fingerprint(a.as_ref(), cfg, group.fingerprint);
                            let macs = series.nnz() as u64;
                            (macs, GroupExec::Prepared { series, cache_hit })
                        }
                        (None, None) => {
                            let plan = self.plan_gemm_memoized(
                                a.as_ref(),
                                group.fingerprint,
                                packed_width,
                            );
                            // lint: allow(indexing): plan_terms never returns an empty plan
                            let macs = (plan.terms[0].density * a.len() as f64) as u64;
                            (macs, GroupExec::Dense { plan })
                        }
                    }
                }));
                let (per_col_macs, exec) = match prep {
                    Ok(prepped) => prepped,
                    Err(payload) => (
                        0,
                        GroupExec::Failed {
                            error: ServingError::KernelPanicked {
                                payload: describe_panic(payload.as_ref()),
                            },
                        },
                    ),
                };
                let mut plan_cost = 0u64;
                for &i in &group.members {
                    let cost = per_col_macs * requests[i].b.cols() as u64;
                    member_cost[i] = cost;
                    plan_cost += cost;
                }
                CostedGroup {
                    members: group.members,
                    plan_cost,
                    fingerprint: group.fingerprint,
                    exec,
                }
            })
            .collect();

        // ---- Schedule and execute ----------------------------------------------------
        let group_costs: Vec<u64> = costed.iter().map(|g| g.plan_cost).collect();
        let order = admission_order(&group_costs, self.fairness_cap());
        let mut group_telemetry: Vec<Option<GroupTelemetry>> =
            (0..costed.len()).map(|_| None).collect();
        let mut panicked = 0usize;
        for (slot, &gid) in order.iter().enumerate() {
            let group = &costed[gid];
            let first = &requests[group.members[0]];
            let panels: Vec<&Matrix> = group.members.iter().map(|&i| &requests[i].b).collect();
            // The window's failure containment: a panicking kernel pass fails only its
            // own group — every member gets a KernelPanicked response, the loop moves
            // to the next admitted group, and the surviving groups' outputs are bitwise
            // identical to a fault-free batch (group passes are independent).
            let executed: std::result::Result<GroupOutcome, Box<dyn Any + Send>> =
                catch_unwind(AssertUnwindSafe(|| -> GroupOutcome {
                    let wide_b = pack_panels(&panels)?;
                    Ok(match &group.exec {
                        GroupExec::Banded(bands) => {
                            // One packed multi-RHS pass per band, each writing its own
                            // rows of the wide output; bitwise identical to the whole
                            // operand's pass.
                            let mut c = Matrix::zeros(first.a.rows(), wide_b.cols());
                            self.gemm_bands_into(first.a.shape(), &bands.bands, &wide_b, &mut c)?;
                            (c, false, false)
                        }
                        GroupExec::Prepared { series, cache_hit } => {
                            let c = self.series_gemm_prepared(series, &wide_b)?;
                            (c, *cache_hit, !*cache_hit)
                        }
                        GroupExec::Dense { plan } => {
                            let mut c = Matrix::zeros(first.a.rows(), wide_b.cols());
                            self.gemm_into_with_plan(first.a.as_ref(), &wide_b, &mut c, plan)?;
                            (c, false, false)
                        }
                        GroupExec::Failed { error } => return Err(error.clone()),
                    })
                }));
            let outcome = match executed {
                Ok(outcome) => outcome,
                Err(payload) => Err(ServingError::KernelPanicked {
                    payload: describe_panic(payload.as_ref()),
                }),
            };
            let (cache_hit, decomposed) = match outcome {
                Ok((wide_c, cache_hit, decomposed)) => {
                    let widths: Vec<usize> = panels.iter().map(|p| p.cols()).collect();
                    for (&i, out) in group.members.iter().zip(unpack_panels(&wide_c, &widths)) {
                        responses[i] = Some(BatchResponse {
                            index: i,
                            output: Ok(out),
                            group: Some(gid),
                            plan_cost: member_cost[i],
                            cache_hit,
                        });
                    }
                    (cache_hit, decomposed)
                }
                Err(error) => {
                    if matches!(error, ServingError::KernelPanicked { .. }) {
                        panicked += group.members.len();
                    }
                    for &i in &group.members {
                        responses[i] = Some(BatchResponse {
                            index: i,
                            output: Err(error.clone()),
                            group: Some(gid),
                            plan_cost: member_cost[i],
                            cache_hit: false,
                        });
                    }
                    (false, false)
                }
            };
            group_telemetry[gid] = Some(GroupTelemetry {
                fingerprint: group.fingerprint,
                members: group.members.clone(),
                plan_cost: group.plan_cost,
                admitted_at: slot,
                // Groups are numbered in arrival order, so gid is the arrival rank.
                queue_delay: slot.saturating_sub(gid),
                decomposed,
                cache_hit,
            });
        }

        let stats_after = self.cache_stats();
        let groups: Vec<GroupTelemetry> = group_telemetry
            .into_iter()
            // lint: allow(panic): admission_order returns a permutation of the group
            // ids, so the execute loop filled every telemetry slot
            .map(|g| g.expect("every group was admitted exactly once"))
            .collect();
        let telemetry = BatchTelemetry {
            requests: n,
            rejected,
            panicked,
            fairness_cap: self.fairness_cap(),
            decompositions: groups.iter().filter(|g| g.decomposed).count() as u64,
            cache_hits: stats_after.hits - stats_before.hits,
            cache_misses: stats_after.misses - stats_before.misses,
            bytes_resident: stats_after.bytes_resident,
            groups,
        };
        let responses = responses
            .into_iter()
            // lint: allow(panic): every request was either rejected at admission or
            // answered by the group that executed it — both write its response slot
            .map(|r| r.expect("every request was answered"))
            .collect();
        (responses, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::{gemm, MatrixGenerator};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::builder().build()
    }

    // ---- Scheduler unit tests --------------------------------------------------------

    #[test]
    fn shortest_plan_first_orders_by_cost() {
        let order = admission_order(&[30, 10, 20], 100);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_costs_keep_arrival_order() {
        // Stability: ties broken by arrival, so the order is deterministic.
        let order = admission_order(&[5, 5, 5, 5], 100);
        assert_eq!(order, vec![0, 1, 2, 3]);
        let order = admission_order(&[9, 5, 5, 9, 5], 100);
        assert_eq!(order, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn fairness_cap_bounds_queue_delay() {
        // One huge plan arriving first, then a stream of cheap ones: without the cap the
        // huge plan would be admitted last.
        let mut costs = vec![1_000_000u64];
        costs.extend(std::iter::repeat_n(1, 20));
        for cap in [0usize, 1, 3, 7, 50] {
            let order = admission_order(&costs, cap);
            let mut position = vec![0usize; costs.len()];
            for (slot, &i) in order.iter().enumerate() {
                position[i] = slot;
            }
            for (i, &pos) in position.iter().enumerate() {
                assert!(
                    pos <= i + cap,
                    "cap {cap}: entry {i} admitted at slot {pos}, past its deadline"
                );
            }
        }
        // And the cap actually binds: with cap 3 the huge plan runs at slot 3, not last.
        let order = admission_order(&costs, 3);
        assert_eq!(order.iter().position(|&i| i == 0), Some(3));
    }

    #[test]
    fn fairness_cap_zero_is_fifo() {
        let order = admission_order(&[100, 1, 50, 2], 0);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn admission_order_is_a_permutation_under_random_costs() {
        let mut gen = MatrixGenerator::seeded(9);
        let noise = gen.normal(1, 64, 0.0, 1.0);
        let costs: Vec<u64> = noise
            .row(0)
            .iter()
            .map(|x| (x.abs() * 1e6) as u64)
            .collect();
        for cap in [0usize, 2, 5, 64] {
            let mut order = admission_order(&costs, cap);
            order.sort_unstable();
            assert_eq!(order, (0..costs.len()).collect::<Vec<_>>());
        }
    }

    // ---- Submit tests ----------------------------------------------------------------

    #[test]
    fn identical_operands_decompose_exactly_once() {
        let mut gen = MatrixGenerator::seeded(21);
        let a = gen.sparse_normal(32, 48, 0.8);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let e = engine();
        let requests: Vec<BatchRequest> = (0..16)
            .map(|_| BatchRequest::decomposed(a.clone(), cfg.clone(), gen.normal(48, 4, 0.0, 1.0)))
            .collect();
        let (responses, telemetry) = e.submit_with_telemetry(requests);
        assert_eq!(telemetry.groups.len(), 1);
        assert_eq!(telemetry.decompositions, 1, "one decomposition per batch");
        assert_eq!(telemetry.cache_misses, 1);
        assert!(telemetry.bytes_resident > 0);
        assert!(responses.iter().all(|r| r.output.is_ok()));
        // A second batch over the same operand is served entirely from the cache.
        let again: Vec<BatchRequest> = (0..16)
            .map(|_| BatchRequest::decomposed(a.clone(), cfg.clone(), gen.normal(48, 4, 0.0, 1.0)))
            .collect();
        let (_, telemetry) = e.submit_with_telemetry(again);
        assert_eq!(telemetry.decompositions, 0);
        assert_eq!(telemetry.cache_hits, 1);
        assert!(telemetry.groups[0].cache_hit);
    }

    #[test]
    fn submit_matches_per_request_execution() {
        let mut gen = MatrixGenerator::seeded(22);
        let e = engine();
        let shared = gen.sparse_normal(24, 32, 0.7);
        let unique = gen.sparse_normal(16, 32, 0.4);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let requests = vec![
            BatchRequest::decomposed(shared.clone(), cfg.clone(), gen.normal(32, 6, 0.0, 1.0)),
            BatchRequest::dense(unique.clone(), gen.normal(32, 3, 0.0, 1.0)),
            BatchRequest::decomposed(shared.clone(), cfg.clone(), gen.normal(32, 1, 0.0, 1.0)),
            BatchRequest::dense(shared.clone(), gen.normal(32, 5, 0.0, 1.0)),
        ];
        let reference: Vec<Matrix> = requests
            .iter()
            .map(|r| match &r.config {
                Some(cfg) => {
                    let series = e.decompose(r.a.as_ref(), cfg);
                    e.series_gemm(&series, &r.b).unwrap()
                }
                None => e.gemm(r.a.as_ref(), &r.b).unwrap(),
            })
            .collect();
        let responses = e.submit(requests);
        for (resp, expected) in responses.iter().zip(&reference) {
            // Packing preserves per-column accumulation order: bitwise equality.
            assert_eq!(resp.output.as_ref().unwrap(), expected);
        }
        // The two decomposed requests on the shared operand formed one group; the dense
        // request on the same operand is a different group (different config key).
        assert_eq!(responses[0].group, responses[2].group);
        assert_ne!(responses[0].group, responses[3].group);
        assert_ne!(responses[1].group, responses[0].group);
    }

    #[test]
    fn rejected_requests_do_not_poison_the_batch() {
        let mut gen = MatrixGenerator::seeded(23);
        let a = gen.normal(8, 8, 0.0, 1.0);
        let e = engine();
        let requests = vec![
            BatchRequest::dense(a.clone(), gen.normal(8, 2, 0.0, 1.0)),
            BatchRequest::dense(a.clone(), gen.normal(9, 2, 0.0, 1.0)), // bad shape
            BatchRequest::dense(a.clone(), gen.normal(8, 2, 0.0, 1.0)),
        ];
        let (responses, telemetry) = e.submit_with_telemetry(requests);
        assert!(responses[0].output.is_ok());
        assert!(responses[1].output.is_err());
        assert!(responses[2].output.is_ok());
        assert_eq!(responses[1].group, None);
        assert_eq!(telemetry.rejected, 1);
        assert_eq!(telemetry.requests, 3);
        assert_eq!(telemetry.groups.len(), 1);
        assert_eq!(telemetry.groups[0].members, vec![0, 2]);
    }

    #[test]
    fn groups_are_admitted_shortest_plan_first() {
        let mut gen = MatrixGenerator::seeded(24);
        // Arrival order: huge dense group first, tiny group second.
        let big = gen.normal(96, 96, 0.0, 1.0);
        let small = gen.normal(8, 8, 0.0, 1.0);
        let e = engine();
        let requests = vec![
            BatchRequest::dense(big, gen.normal(96, 32, 0.0, 1.0)),
            BatchRequest::dense(small, gen.normal(8, 2, 0.0, 1.0)),
        ];
        let (_, telemetry) = e.submit_with_telemetry(requests);
        assert_eq!(telemetry.admission_order(), vec![1, 0]);
        assert_eq!(telemetry.groups[0].queue_delay, 1);
        assert!(telemetry.max_queue_delay() <= telemetry.fairness_cap);
        assert!(telemetry.groups[0].plan_cost > telemetry.groups[1].plan_cost);
        assert_eq!(
            telemetry.total_plan_cost(),
            telemetry.groups.iter().map(|g| g.plan_cost).sum::<u64>()
        );
    }

    #[test]
    fn zero_capacity_engine_serves_batches_without_caching() {
        // Regression companion to `DecompositionCache::new(0)`: a cache-less engine must
        // serve every batch (decomposing per batch) and never panic.
        let mut gen = MatrixGenerator::seeded(25);
        let a = gen.sparse_normal(16, 16, 0.6);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let e = ExecutionEngine::builder().cache_capacity(0).build();
        for _ in 0..3 {
            let requests: Vec<BatchRequest> = (0..4)
                .map(|_| {
                    BatchRequest::decomposed(a.clone(), cfg.clone(), gen.normal(16, 2, 0.0, 1.0))
                })
                .collect();
            let (responses, telemetry) = e.submit_with_telemetry(requests);
            assert!(responses.iter().all(|r| r.output.is_ok()));
            // Still one decomposition per *batch* (the group shares the series in hand),
            // but nothing is retained across batches.
            assert_eq!(telemetry.decompositions, 1);
            assert_eq!(telemetry.bytes_resident, 0);
        }
        assert_eq!(e.cache_stats().entries, 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (responses, telemetry) = engine().submit_with_telemetry(Vec::new());
        assert!(responses.is_empty());
        assert_eq!(telemetry.requests, 0);
        assert!(telemetry.groups.is_empty());
        assert_eq!(telemetry.max_queue_delay(), 0);
    }

    #[test]
    fn dense_group_output_matches_reference_gemm() {
        let mut gen = MatrixGenerator::seeded(26);
        let a = gen.sparse_normal(20, 24, 0.5);
        let b1 = gen.normal(24, 7, 0.0, 1.0);
        let b2 = gen.normal(24, 2, 0.0, 1.0);
        let responses = engine().submit(vec![
            BatchRequest::dense(a.clone(), b1.clone()),
            BatchRequest::dense(a.clone(), b2.clone()),
        ]);
        assert!(responses[0]
            .output
            .as_ref()
            .unwrap()
            .approx_eq(&gemm(&a, &b1).unwrap(), 1e-4));
        assert!(responses[1]
            .output
            .as_ref()
            .unwrap()
            .approx_eq(&gemm(&a, &b2).unwrap(), 1e-4));
    }
}
