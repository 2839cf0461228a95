//! The three workloads and how each builds its platform×backend cell,
//! untraced (exactly as `om_marketplace::build_platform` builds it) or
//! traced (the same cell with every layer boundary wrapped).

use crate::trace::{
    TracedBackend, TracedCheckpointStore, TracedLog, TracedPlatform, TracedVfs, Tracer,
    BINDING_SPANS,
};
use om_common::config::{BackendKind, DurableOptions, ScaleConfig, WorkloadMix};
use om_dataflow::{Address, BackendCheckpointStore, CheckpointStore};
use om_log::EventLog;
use om_marketplace::api::{MarketplacePlatform, PlatformKind};
use om_marketplace::bindings::dataflow::{
    persistent_ingress_with_vfs, DataflowPlatform, DataflowPlatformConfig, DfMsg,
};
use om_marketplace::{build_platform, PlatformSpec};
use om_storage::{FileBackend, FileBackendOptions, StateBackend};
use std::path::Path;
use std::sync::Arc;

/// One benchmark workload: a matrix cell plus a transaction mix and a
/// fixed operation count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: PlatformKind,
    pub backend: BackendKind,
    pub mix: WorkloadMix,
    /// Operations of the measured window, split evenly over the clients.
    pub measured_ops: u64,
    /// Unmeasured operations before the window, split the same way.
    pub warmup_ops: u64,
}

const PAPER_MIX: WorkloadMix = WorkloadMix {
    checkout: 60,
    price_update: 15,
    product_delete: 5,
    update_delivery: 10,
    seller_dashboard: 10,
};

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mix_tx_si",
        kind: PlatformKind::Transactional,
        backend: BackendKind::SnapshotIsolation,
        mix: PAPER_MIX,
        measured_ops: 4000,
        warmup_ops: 200,
    },
    Workload {
        name: "mix_df_durable",
        kind: PlatformKind::Dataflow,
        backend: BackendKind::FileDurable,
        mix: PAPER_MIX,
        measured_ops: 2500,
        warmup_ops: 200,
    },
    Workload {
        name: "dash_cust_si",
        kind: PlatformKind::Customized,
        backend: BackendKind::SnapshotIsolation,
        mix: WorkloadMix {
            checkout: 20,
            price_update: 30,
            product_delete: 0,
            update_delivery: 0,
            seller_dashboard: 50,
        },
        measured_ops: 1000,
        warmup_ops: 100,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The benchmark's population: 100 sellers × 100 products, 10 000
/// customers, and stock no run can sell out.
pub const SCALE: ScaleConfig = ScaleConfig {
    sellers: 100,
    products_per_seller: 100,
    customers: 10_000,
    initial_stock: 1_000_000,
};

/// Platform parallelism and dataflow epoch workers, fixed so another
/// host runs the same program (0 would resolve to its core count).
pub const PARALLELISM: usize = 2;

/// The cell's spec. A file-durable cell keeps its state and ingress log
/// under `data_dir` and fsyncs every commit (group commit per the
/// default `DurableOptions`).
pub fn spec(w: &Workload, data_dir: &Path) -> PlatformSpec {
    let spec = PlatformSpec::new(w.kind, w.backend)
        .parallelism(PARALLELISM)
        .df_workers(PARALLELISM)
        .decline_rate(0.05);
    if w.backend.is_durable() {
        spec.durable_options(DurableOptions {
            sync_commits: true,
            ..DurableOptions::default()
        })
        .data_dir(data_dir)
    } else {
        spec
    }
}

/// The cell as the factory builds it.
pub fn build_untraced(spec: &PlatformSpec) -> Arc<dyn MarketplacePlatform> {
    Arc::from(build_platform(spec))
}

/// A traced cell: the platform to hand to the gateway, and the dataflow
/// cell's wrapped ingress log (read for its duplicate count).
pub struct TracedCell {
    pub platform: Arc<dyn MarketplacePlatform>,
    pub ingress: Option<Arc<dyn EventLog<(Address, DfMsg)>>>,
}

/// The same cell with every layer boundary wrapped, the binding itself
/// included (this is the platform handed to the gateway).
///
/// The actor cells get their traced backend through
/// `PlatformSpec::backend_instance`. The dataflow cell is assembled with
/// `DataflowPlatform::new` so its ingress log and device calls can be
/// wrapped too; its config mirrors, field by field, what
/// `om_marketplace::build_platform` builds for the same spec.
pub fn build_traced(spec: &PlatformSpec, tracer: &Arc<Tracer>) -> TracedCell {
    let mut traced_ingress = None;
    let platform: Arc<dyn MarketplacePlatform> = match spec.kind {
        PlatformKind::Dataflow => {
            let vfs = Arc::new(TracedVfs::new(om_storage::real_vfs(), tracer.clone()));
            let backend: Arc<dyn StateBackend> = match (&spec.data_dir, spec.backend) {
                (Some(dir), BackendKind::FileDurable) => Arc::new(
                    FileBackend::open_with_vfs(
                        dir.join("state"),
                        FileBackendOptions::from_durable(
                            om_actor::storage::GRAIN_STORAGE_SHARDS,
                            &spec.durable,
                        ),
                        vfs.clone(),
                    )
                    .expect("open the durable state backend"),
                ),
                _ => spec.storage_backend(),
            };
            let backend: Arc<dyn StateBackend> =
                Arc::new(TracedBackend::new(backend, tracer.clone()));
            let checkpoint_store = spec
                .durable_checkpoints
                .then(|| -> Arc<dyn CheckpointStore> {
                    Arc::new(TracedCheckpointStore::new(
                        Arc::new(BackendCheckpointStore::new(backend)),
                        tracer.clone(),
                    ))
                });
            let ingress = spec.data_dir.as_ref().map(|dir| {
                let log = persistent_ingress_with_vfs(
                    dir.join("ingress"),
                    spec.parallelism.max(1),
                    om_log::PersistentTopicOptions {
                        group_commit: spec.durable.group_commit,
                        ..Default::default()
                    },
                    vfs,
                )
                .expect("open the persistent ingress topic");
                let log: Arc<dyn EventLog<(Address, DfMsg)>> =
                    Arc::new(TracedLog::new(log, tracer.clone()));
                traced_ingress = Some(log.clone());
                log
            });
            Arc::new(DataflowPlatform::new(DataflowPlatformConfig {
                partitions: spec.parallelism.max(1),
                max_batch: spec.checkpoint_interval,
                workers: spec.df_workers,
                decline_rate: spec.decline_rate,
                checkpoint_store,
                ingress,
            }))
        }
        _ => {
            let backend = Arc::new(TracedBackend::new(spec.storage_backend(), tracer.clone()));
            Arc::from(build_platform(&spec.clone().backend_instance(backend)))
        }
    };
    TracedCell {
        platform: Arc::new(TracedPlatform::new(
            platform,
            tracer.clone(),
            &BINDING_SPANS,
        )),
        ingress: traced_ingress,
    }
}
