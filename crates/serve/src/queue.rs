//! The campaign registry and asynchronous job queue feeding the harness
//! executor.
//!
//! A submitted spec resolves to a campaign **id** — [`campaign_fingerprint`]
//! over its normalized JSON and resolved scale — so resubmitting an
//! identical `(spec, scale)` is idempotent: the second request attaches to
//! the first campaign instead of enqueueing new work.
//! One runner thread drains the bounded queue a campaign at a time (the
//! executor already runs a campaign's cells on every worker thread of its
//! scale, so stacking campaigns would oversubscribe), executing through [`run_campaign_with`] with the shared
//! content-addressed [`ResultStore`] — which is what makes results durable
//! *across* campaigns and process restarts.
//!
//! The registry lives in memory only; the store is the one file the
//! service writes. After a restart a client re-submits its spec: the id is
//! the same, and every cell is a store hit, so the campaign re-materializes
//! without a single simulator invocation.

use dspatch_harness::campaign::{
    run_campaign_with, CampaignResult, CampaignSpec, ExecOptions, ProgressEvent,
};
use dspatch_harness::runner::RunScale;
use dspatch_harness::store::{campaign_fingerprint, ResultStore};
use dspatch_harness::{HarnessError, Json, SharedStore};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lifecycle of a submitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for the runner.
    Queued,
    /// The runner is executing it.
    Running,
    /// Completed; results available.
    Done,
    /// The executor returned a typed error (bad spec, store I/O).
    Failed,
}

impl Phase {
    /// Stable lower-case name used in status documents.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

#[derive(Debug, Default)]
struct Progress {
    completed: usize,
    total: usize,
    cached: usize,
}

#[derive(Debug)]
struct Inner {
    phase: Phase,
    progress: Progress,
    /// JSON-lines progress events, in emission order.
    events: Vec<String>,
    /// The completed result, summarized in the status document.
    result: Option<CampaignResult>,
    /// The exact `to_json().render()` bytes — byte-identical to
    /// `dspatch-lab --spec <file> --format json` for the same spec.
    result_json: Option<String>,
    error: Option<HarnessError>,
}

/// One submitted campaign: identity, spec, and observable state.
#[derive(Debug)]
pub struct Campaign {
    /// Content id: `campaign_fingerprint(spec, scale)`.
    pub id: String,
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// The resolved scale (embedded `"scale"` or the smoke default — the
    /// same resolution `dspatch-lab --spec` applies with no flags).
    pub scale: RunScale,
    inner: Mutex<Inner>,
    notify: Condvar,
}

pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Campaign {
    fn new(id: String, spec: CampaignSpec, scale: RunScale) -> Self {
        Self {
            id,
            spec,
            scale,
            inner: Mutex::new(Inner {
                phase: Phase::Queued,
                progress: Progress::default(),
                events: Vec::new(),
                result: None,
                result_json: None,
                error: None,
            }),
            notify: Condvar::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        lock_unpoisoned(&self.inner).phase
    }

    /// The status document for `GET /campaigns/:id`.
    pub fn status_json(&self) -> Json {
        let inner = lock_unpoisoned(&self.inner);
        let mut entries = vec![
            ("id".to_owned(), Json::str(&self.id)),
            ("name".to_owned(), Json::str(&self.spec.name)),
            ("status".to_owned(), Json::str(inner.phase.label())),
            (
                "progress".to_owned(),
                Json::obj([
                    ("completed", Json::num(inner.progress.completed as f64)),
                    ("total", Json::num(inner.progress.total as f64)),
                    ("cached", Json::num(inner.progress.cached as f64)),
                ]),
            ),
        ];
        if let Some(result) = &inner.result {
            entries.push((
                "stats".to_owned(),
                Json::obj([
                    ("sims_run", Json::num(result.stats.sims_run as f64)),
                    (
                        "baseline_sims",
                        Json::num(result.stats.baseline_sims as f64),
                    ),
                    ("memo_hits", Json::num(result.stats.memo_hits as f64)),
                    ("store_hits", Json::num(result.stats.store_hits as f64)),
                    ("fresh_sims", {
                        let fresh = result
                            .stats
                            .sims_run
                            .saturating_sub(result.stats.store_hits);
                        Json::num(fresh as f64)
                    }),
                    ("threads", Json::num(result.stats.threads as f64)),
                ]),
            ));
            entries.push((
                "quarantined".to_owned(),
                Json::num(result.failures.len() as f64),
            ));
            if !result.failures.is_empty() {
                let quarantines = result.failures.iter().map(|failure| {
                    Json::obj([
                        ("target", Json::str(&failure.target)),
                        ("prefetcher", Json::str(&failure.prefetcher)),
                        ("config", Json::str(&failure.config)),
                        ("error", failure.error.to_json()),
                    ])
                });
                entries.push(("quarantines".to_owned(), Json::Arr(quarantines.collect())));
            }
        }
        if let Some(error) = &inner.error {
            entries.push(("error".to_owned(), error.to_json()));
        }
        Json::Obj(entries)
    }

    /// The exact results document, available once `Done`.
    pub fn result_json(&self) -> Option<String> {
        lock_unpoisoned(&self.inner).result_json.clone()
    }

    /// The failure, once `Failed`.
    pub fn error(&self) -> Option<HarnessError> {
        lock_unpoisoned(&self.inner).error.clone()
    }

    fn push_event(&self, event: Json) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.events.push(event.render_compact());
        drop(inner);
        self.notify.notify_all();
    }

    /// Returns events from index `from` on, blocking until at least one new
    /// event exists or the campaign reaches a terminal phase. The flag is
    /// `true` when no further events will ever arrive.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            let terminal = matches!(inner.phase, Phase::Done | Phase::Failed);
            if inner.events.len() > from || terminal {
                let fresh = inner.events[from.min(inner.events.len())..].to_vec();
                let drained = terminal && from + fresh.len() >= inner.events.len();
                return (fresh, drained);
            }
            inner = match self.notify.wait_timeout(inner, Duration::from_millis(500)) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// Submission outcome: a fresh campaign or an attach to an identical one.
#[derive(Debug)]
pub enum Submitted {
    /// Newly enqueued.
    New(Arc<Campaign>),
    /// An identical `(spec, scale)` already exists (any phase) — the
    /// content-addressed idempotency the service is built around.
    Existing(Arc<Campaign>),
}

impl Submitted {
    /// The campaign either way.
    pub fn campaign(&self) -> &Arc<Campaign> {
        match self {
            Submitted::New(campaign) | Submitted::Existing(campaign) => campaign,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec embeds an invalid scale.
    Spec(String),
    /// The server is draining: no new work.
    Draining,
    /// The queue is at capacity.
    QueueFull {
        /// The configured bound.
        capacity: usize,
    },
}

#[derive(Default)]
struct Registry {
    by_id: HashMap<String, Arc<Campaign>>,
    order: Vec<String>,
}

/// Shared service state: the registry, the queue, and the durable store.
pub struct ServeState {
    store: SharedStore,
    registry: Mutex<Registry>,
    queue: Mutex<VecDeque<Arc<Campaign>>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    draining: AtomicBool,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("queue_capacity", &self.queue_capacity)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Opens (or creates) the store under `store_dir` and builds the state.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultStore::open`] failures (I/O, corruption, foreign
    /// file).
    pub fn open(store_dir: &Path, queue_capacity: usize) -> Result<Arc<Self>, HarnessError> {
        let store = ResultStore::open(store_dir)?;
        Ok(Arc::new(Self {
            store: Arc::new(Mutex::new(store)),
            registry: Mutex::new(Registry::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            draining: AtomicBool::new(false),
        }))
    }

    /// The shared store handle.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Stored cell count (for `/healthz`).
    pub fn stored_cells(&self) -> usize {
        lock_unpoisoned(&self.store).len()
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins the drain: no new submissions; the runner exits once the
    /// queue is empty. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Campaign by id.
    pub fn get(&self, id: &str) -> Option<Arc<Campaign>> {
        lock_unpoisoned(&self.registry).by_id.get(id).cloned()
    }

    /// Every campaign, in submission order.
    pub fn campaigns(&self) -> Vec<Arc<Campaign>> {
        let registry = lock_unpoisoned(&self.registry);
        registry
            .order
            .iter()
            .filter_map(|id| registry.by_id.get(id).cloned())
            .collect()
    }

    /// Submits a spec. The id is the content fingerprint of `(spec, scale)`,
    /// so an identical resubmission attaches to the existing campaign.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(self: &Arc<Self>, spec: CampaignSpec) -> Result<Submitted, SubmitError> {
        let scale = match &spec.scale {
            Some(scale) => scale.resolve().map_err(SubmitError::Spec)?,
            None => RunScale::smoke(),
        };
        let id = campaign_fingerprint(&spec.to_json(), &scale);
        let mut registry = lock_unpoisoned(&self.registry);
        if let Some(existing) = registry.by_id.get(&id) {
            return Ok(Submitted::Existing(existing.clone()));
        }
        if self.draining() {
            return Err(SubmitError::Draining);
        }
        let mut queue = lock_unpoisoned(&self.queue);
        if queue.len() >= self.queue_capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        let campaign = Arc::new(Campaign::new(id.clone(), spec, scale));
        registry.by_id.insert(id.clone(), campaign.clone());
        registry.order.push(id);
        queue.push_back(campaign.clone());
        drop(queue);
        drop(registry);
        self.queue_cv.notify_all();
        Ok(Submitted::New(campaign))
    }

    /// The runner loop: executes queued campaigns one at a time until a
    /// drain begins **and** the queue is empty (accepted work always
    /// completes — that is the graceful half of graceful drain).
    pub fn runner_loop(self: &Arc<Self>) {
        loop {
            let next = {
                let mut queue = lock_unpoisoned(&self.queue);
                loop {
                    if let Some(campaign) = queue.pop_front() {
                        break Some(campaign);
                    }
                    if self.draining() {
                        break None;
                    }
                    queue = match self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(200))
                    {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            };
            let Some(campaign) = next else { return };
            self.run_one(&campaign);
        }
    }

    fn run_one(self: &Arc<Self>, campaign: &Arc<Campaign>) {
        {
            let mut inner = lock_unpoisoned(&campaign.inner);
            inner.phase = Phase::Running;
        }
        campaign.notify.notify_all();

        let sink_campaign = campaign.clone();
        let opts = ExecOptions {
            store: Some(self.store.clone()),
            progress: Some(Arc::new(move |event: &ProgressEvent| {
                observe(&sink_campaign, event);
            })),
            ..ExecOptions::default()
        };
        match run_campaign_with(&campaign.spec, &campaign.scale, &opts) {
            Ok(result) => {
                {
                    let mut inner = lock_unpoisoned(&campaign.inner);
                    inner.result_json = Some(result.to_json().render());
                    inner.result = Some(result);
                    inner.phase = Phase::Done;
                }
                campaign.notify.notify_all();
            }
            Err(error) => {
                campaign.push_event(Json::obj([
                    ("event", Json::str("failed")),
                    ("error", error.to_json()),
                ]));
                {
                    let mut inner = lock_unpoisoned(&campaign.inner);
                    inner.error = Some(error);
                    inner.phase = Phase::Failed;
                }
                campaign.notify.notify_all();
            }
        }
    }
}

/// Translates one executor [`ProgressEvent`] into the campaign's observable
/// progress counters and its JSON-lines event feed.
fn observe(campaign: &Arc<Campaign>, event: &ProgressEvent) {
    let json = match event {
        ProgressEvent::Started { total, cached } => {
            let mut inner = lock_unpoisoned(&campaign.inner);
            inner.progress.total = *total;
            inner.progress.cached = *cached;
            drop(inner);
            Json::obj([
                ("event", Json::str("started")),
                ("total", Json::num(*total as f64)),
                ("cached", Json::num(*cached as f64)),
            ])
        }
        ProgressEvent::CellFinished {
            key,
            target,
            prefetcher,
            config,
            outcome,
            completed,
            total,
        } => {
            let mut inner = lock_unpoisoned(&campaign.inner);
            inner.progress.completed = (*completed).max(inner.progress.completed);
            inner.progress.total = *total;
            drop(inner);
            Json::obj([
                ("event", Json::str("cell")),
                ("key", Json::str(key)),
                ("target", Json::str(target)),
                ("prefetcher", Json::str(prefetcher)),
                ("config", Json::str(config)),
                ("outcome", Json::str(outcome.label())),
                ("completed", Json::num(*completed as f64)),
                ("total", Json::num(*total as f64)),
            ])
        }
        ProgressEvent::Finished { sims, quarantined } => Json::obj([
            ("event", Json::str("finished")),
            ("sims", Json::num(*sims as f64)),
            ("quarantined", Json::num(*quarantined as f64)),
        ]),
    };
    campaign.push_event(json);
}
