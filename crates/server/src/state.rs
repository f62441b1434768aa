//! Shared server state: the service behind one mutation lock, the tenant
//! registry, and the metrics sink.
//!
//! Reads never take the service lock — every worker thread owns a cloned
//! [`QueryHandle`] that follows the service's lock-free snapshot chain, so
//! query throughput scales with handler threads while mutations
//! (`/ingest`, `/epoch/end`) serialize through one `std::sync::Mutex`.
//! `std`'s mutex is chosen deliberately: its poisoning is the signal the
//! API maps to `503 Service Unavailable` when a handler dies mid-mutation.

use crate::metrics::Metrics;
use crate::tenant::TenantRegistry;
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{
    DpmgService, DurableService, QueryHandle, ReleasedSnapshot, ServiceError, ServiceMode,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// The backend mutex is poisoned: a handler panicked mid-mutation, so the
/// in-memory service state is suspect. Mapped to `503` by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonedState;

impl std::fmt::Display for PoisonedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("service state poisoned: a handler panicked mid-mutation")
    }
}

impl std::error::Error for PoisonedState {}

/// The service a server fronts: plain in-memory or WAL-backed durable.
pub enum ServiceBackend {
    /// A [`DpmgService`] with no persistence.
    InMemory(DpmgService<u64>),
    /// A [`DurableService`] journaling every mutation.
    Durable(DurableService),
}

impl ServiceBackend {
    /// Ingests a batch in order.
    ///
    /// # Errors
    ///
    /// As the backing service's `ingest`.
    pub fn ingest_batch(&mut self, items: &[u64]) -> Result<(), ServiceError> {
        match self {
            ServiceBackend::InMemory(s) => s.ingest_from(items.iter().copied()),
            ServiceBackend::Durable(s) => s.ingest_from(items.iter().copied()),
        }
    }

    /// Releases the open epoch.
    ///
    /// # Errors
    ///
    /// As the backing service's `end_epoch`.
    pub fn end_epoch(&mut self) -> Result<Arc<ReleasedSnapshot<u64>>, ServiceError> {
        match self {
            ServiceBackend::InMemory(s) => s.end_epoch(),
            ServiceBackend::Durable(s) => s.end_epoch(),
        }
    }

    /// Completed (released) epochs.
    pub fn completed_epochs(&self) -> u64 {
        match self {
            ServiceBackend::InMemory(s) => s.completed_epochs(),
            ServiceBackend::Durable(s) => s.completed_epochs(),
        }
    }

    /// Remaining global `(ε, δ, charges)`.
    pub fn remaining_budget(&self) -> (f64, f64, usize) {
        let acct = match self {
            ServiceBackend::InMemory(s) => s.accountant(),
            ServiceBackend::Durable(s) => s.accountant(),
        };
        (
            acct.remaining_epsilon(),
            acct.remaining_delta(),
            acct.charges(),
        )
    }

    /// A lock-free read handle.
    pub fn query_handle(&self) -> QueryHandle<u64> {
        match self {
            ServiceBackend::InMemory(s) => s.query_handle(),
            ServiceBackend::Durable(s) => s.query_handle(),
        }
    }

    /// The backing service's epoch composition mode (immutable for the
    /// service's lifetime, so [`AppState`] caches it at construction).
    pub fn mode(&self) -> ServiceMode {
        match self {
            ServiceBackend::InMemory(s) => s.config().mode,
            ServiceBackend::Durable(s) => s.config().mode,
        }
    }
}

/// Everything the handler layer shares across worker threads.
pub struct AppState {
    backend: Mutex<ServiceBackend>,
    /// The backend's epoch composition mode, cached so read-path handlers
    /// (`/topk?window=`, `/window`) never take the mutation lock.
    mode: ServiceMode,
    /// The `(ε, δ)` price one `/epoch/end` charges a tenant — the same
    /// per-release parameters the service's mechanism spends globally,
    /// supplied by whoever constructed that mechanism.
    epoch_price: PrivacyParams,
    /// Per-tenant budget isolation.
    pub tenants: TenantRegistry,
    /// Request counters and latency samples.
    pub metrics: Metrics,
}

impl AppState {
    /// Assembles the shared state.
    ///
    /// `epoch_price` is what each explicit epoch release costs a tenant;
    /// `per_tenant_budget` is every tenant's isolated allowance.
    pub fn new(
        backend: ServiceBackend,
        epoch_price: PrivacyParams,
        per_tenant_budget: PrivacyParams,
    ) -> Self {
        let mode = backend.mode();
        Self {
            backend: Mutex::new(backend),
            mode,
            epoch_price,
            tenants: TenantRegistry::new(per_tenant_budget),
            metrics: Metrics::new(),
        }
    }

    /// The per-release tenant price.
    pub fn epoch_price(&self) -> PrivacyParams {
        self.epoch_price
    }

    /// The backend's epoch composition mode (cached, lock-free).
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// Locks the backend for a mutation.
    ///
    /// # Errors
    ///
    /// [`PoisonedState`] when the mutex is poisoned (a handler panicked
    /// holding it) — mapped to `503` by the caller.
    pub fn backend(&self) -> Result<MutexGuard<'_, ServiceBackend>, PoisonedState> {
        self.backend.lock().map_err(|_| PoisonedState)
    }

    /// A fresh lock-free read handle (taken once per worker thread).
    ///
    /// # Errors
    ///
    /// [`PoisonedState`] when the backend mutex is poisoned.
    pub fn query_handle(&self) -> Result<QueryHandle<u64>, PoisonedState> {
        Ok(self.backend()?.query_handle())
    }
}
