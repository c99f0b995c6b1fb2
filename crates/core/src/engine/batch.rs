//! Batched serving: group and execute many GEMM requests in one call.
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
//!    per-allocation memo, so a warm stream never rescans its operands.
//! 2. **Execution** — groups run one after another in arrival order (a group's id is
//!    its arrival rank). Each inline group *prepares* its operand at most once per batch
//!    (and usually zero times, when the prepared cache entry is already resident — a
//!    warm batch performs zero decompositions, zero format conversions, and zero
//!    replans). Its members' right-hand panels are packed column-wise so one pass over
//!    the operand serves every member
//!    ([`pack_panels`](tasd_tensor::backend::pack_panels)); a one-member group's kernel
//!    reads the request's own panel and writes the matrix its response returns. One
//!    `catch_unwind` covers a group's preparation and kernel pass, so a panic in either
//!    fails that group's members only.
//! 3. **Telemetry** — [`BatchTelemetry`] reports each group's members, fingerprint and
//!    cache outcome, and the decomposition-cache deltas (hits, misses, decompositions
//!    performed, bytes resident), so deployments can size `cache_capacity` from data.
//!
//! Packing never changes the math: each output column accumulates in the same order as a
//! one-at-a-time [`series_gemm`](ExecutionEngine::series_gemm) /
//! [`gemm`](ExecutionEngine::gemm) call, so `submit` results are bitwise identical to the
//! per-request path.

use super::deploy::Banded;
use super::ExecutionEngine;
use crate::config::TasdConfig;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use tasd_tensor::backend::{pack_panels, unpack_panels};
use tasd_tensor::{Matrix, TensorError};

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
    /// Arrival-ranked id of the group this request executed with (`None` if it was
    /// rejected at admission or answered outside any window).
    pub group: Option<usize>,
    /// Whether this request's decomposition was served from the cache. `false` for dense
    /// requests, for requests carrying a generation's bands (those never touch the
    /// cache), and for the request batch that actually performed the decomposition.
    pub cache_hit: bool,
}

impl BatchResponse {
    /// A failed response carrying `error` and no execution metadata — what admission
    /// and queue rejection, cancellation, deadline expiry, shutdown, and panic
    /// containment deliver.
    pub(crate) fn failed(index: usize, error: ServingError) -> Self {
        BatchResponse {
            index,
            output: Err(error),
            group: None,
            cache_hit: false,
        }
    }
}

/// Per-group serving telemetry (one entry per operand group, indexed by group id, which
/// is the group's arrival rank).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTelemetry {
    /// Content fingerprint of the group's shared operand (for a banded group, its
    /// generation's store fingerprint).
    pub fingerprint: u64,
    /// Request indices served by this group, in arrival order.
    pub members: Vec<usize>,
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

/// A request group: one shared operand (+ config), many right-hand panels.
struct Group {
    members: Vec<usize>,
    fingerprint: u64,
    banded: Option<Arc<Banded>>,
}

/// One group's result: the packed wide output plus (cache_hit, decomposed), or the
/// structured error that failed every member.
type GroupOutcome = std::result::Result<(Matrix, bool, bool), ServingError>;

impl ExecutionEngine {
    /// Executes a batch of serving requests: groups them by decomposed-operand
    /// fingerprint, then runs the groups in arrival order, each decomposing its operand
    /// at most once (through the cache) and running as one packed multi-RHS kernel
    /// pass. See the [`batch` module docs](self) for the full contract.
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
    // batch, group ids from the group vector's own length, and the responses vector is
    // allocated at the batch's length
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
                responses[i] = Some(BatchResponse::failed(
                    i,
                    ServingError::ShapeMismatch {
                        op: "batch request",
                        lhs: req.a.shape(),
                        rhs: req.b.shape(),
                    },
                ));
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

        // ---- Prepare, execute and answer each group, in arrival order ----------------
        let mut group_telemetry = Vec::with_capacity(groups.len());
        let mut panicked = 0usize;
        for (gid, group) in groups.into_iter().enumerate() {
            let panels: Vec<&Matrix> = group.members.iter().map(|&i| &requests[i].b).collect();
            // The window's failure containment: a panic while preparing the group's
            // operand or in its kernel pass fails only this group — every member gets a
            // KernelPanicked response, the loop moves on to the next group, and the
            // other groups' outputs are bitwise identical to a fault-free batch (group
            // passes are independent).
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.execute_group(&requests[group.members[0]], &group, &panels)
            }))
            .unwrap_or_else(|payload| {
                Err(ServingError::KernelPanicked {
                    payload: describe_panic(payload.as_ref()),
                })
            });
            let (cache_hit, decomposed) = match outcome {
                Ok((wide_c, cache_hit, decomposed)) => {
                    let widths: Vec<usize> = panels.iter().map(|p| p.cols()).collect();
                    for (&i, out) in group.members.iter().zip(unpack_panels(wide_c, &widths)) {
                        responses[i] = Some(BatchResponse {
                            index: i,
                            output: Ok(out),
                            group: Some(gid),
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
                            group: Some(gid),
                            ..BatchResponse::failed(i, error.clone())
                        });
                    }
                    (false, false)
                }
            };
            group_telemetry.push(GroupTelemetry {
                fingerprint: group.fingerprint,
                members: group.members,
                decomposed,
                cache_hit,
            });
        }

        let stats_after = self.cache_stats();
        let telemetry = BatchTelemetry {
            requests: n,
            rejected,
            panicked,
            decompositions: group_telemetry.iter().filter(|g| g.decomposed).count() as u64,
            cache_hits: stats_after.hits - stats_before.hits,
            cache_misses: stats_after.misses - stats_before.misses,
            bytes_resident: stats_after.bytes_resident,
            groups: group_telemetry,
        };
        let responses = responses
            .into_iter()
            // lint: allow(panic): every request was either rejected at admission or
            // answered by the group that executed it — both write its response slot
            .map(|r| r.expect("every request was answered"))
            .collect();
        (responses, telemetry)
    }

    /// Prepares `group`'s operand and runs its one packed kernel pass over `panels`:
    /// a generation's bands run by band, an inline decomposed operand goes through the
    /// cache, and an exact GEMM runs on its memoized plan. `first` is the group's first
    /// request, which names the shared operand and config.
    // lint: hot-path
    fn execute_group(
        &self,
        first: &BatchRequest,
        group: &Group,
        panels: &[&Matrix],
    ) -> GroupOutcome {
        let a = first.a.as_ref();
        let wide_b = pack_panels(panels)?;
        match (&group.banded, &first.config) {
            (Some(bands), _) => {
                // One pass per band, each writing its own rows of the wide output;
                // bitwise identical to the whole operand's pass.
                let mut c = Matrix::zeros(a.rows(), wide_b.cols());
                self.gemm_bands_into(a.shape(), &bands.bands, &wide_b, &mut c)?;
                Ok((c, false, false))
            }
            (None, Some(cfg)) => {
                let (series, cache_hit) = self.prepare_with_fingerprint(a, cfg, group.fingerprint);
                let c = self.series_gemm_prepared(&series, &wide_b)?;
                Ok((c, cache_hit, !cache_hit))
            }
            (None, None) => {
                let plan = self.plan_gemm_memoized(a, group.fingerprint, wide_b.cols());
                let mut c = Matrix::zeros(a.rows(), wide_b.cols());
                self.gemm_into_with_plan(a, &wide_b, &mut c, &plan)?;
                Ok((c, false, false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::{gemm, MatrixGenerator};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::builder().build()
    }

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
