//! System assembly: nodes, processes, interfaces, objects, lifecycle.
//!
//! A [`System`] is one simulated deployment — the unit the paper calls "the
//! application": a set of processes on a set of processors, sharing a name
//! vocabulary and a transport fabric, all monitored under one configuration.

use crate::catalog::InterfaceCatalog;
use crate::client::{Client, ObjRef};
use crate::engine::{ServerEngine, ThreadingPolicy};
use crate::error::OrbError;
use crate::orb::{Orb, OrbConfig};
use crate::registry::{ObjectRecord, ObjectRegistry, SharedRegistries};
use crate::servant::Servant;
use crate::transport::{Fabric, Incoming};
use causeway_core::clock::{CpuClock, SystemClock, VirtualCpuClock, WallClock};
use causeway_core::deploy::Deployment;
use causeway_core::engine::{Gate, DEFAULT_QUEUE_CAPACITY};
use causeway_core::ids::{InterfaceId, NodeId, ProcessId};
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::{Monitor, ProbeMode, ProbePolicy};
use causeway_core::names::SystemVocab;
use causeway_core::runlog::RunLog;
use causeway_core::sink::LogStore;
use causeway_core::sync::Mutex;
use causeway_idl::compile::{CompileError, InstrumentMode, compile};
use causeway_idl::{ParseError, parse};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Errors raised while assembling or operating a system.
#[derive(Debug)]
#[non_exhaustive]
pub enum SystemError {
    /// IDL source failed to parse.
    Parse(ParseError),
    /// IDL failed semantic checks.
    Compile(CompileError),
    /// A name was not found (interface, process, …).
    Unknown(String),
    /// The system did not reach quiescence within the allowed time.
    QuiesceTimeout {
        /// Requests still in flight when the wait gave up.
        in_flight: i64,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Parse(e) => write!(f, "idl parse error: {e}"),
            SystemError::Compile(e) => write!(f, "idl compile error: {e}"),
            SystemError::Unknown(name) => write!(f, "unknown name: {name}"),
            SystemError::QuiesceTimeout { in_flight } => {
                write!(f, "system did not quiesce: {in_flight} requests in flight")
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<ParseError> for SystemError {
    fn from(e: ParseError) -> Self {
        SystemError::Parse(e)
    }
}

impl From<CompileError> for SystemError {
    fn from(e: CompileError) -> Self {
        SystemError::Compile(e)
    }
}

/// Builder for a [`System`] (C-BUILDER).
pub struct SystemBuilder {
    vocab: SystemVocab,
    deployment: Deployment,
    policies: Vec<ThreadingPolicy>,
    probe_mode: ProbeMode,
    probe_policy: Option<ProbePolicy>,
    instrumented: bool,
    collocation_optimization: bool,
    reply_timeout: Duration,
    engine_queue_capacity: usize,
    wall: Option<Arc<dyn WallClock>>,
    cpu: Option<Arc<dyn CpuClock>>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("nodes", &self.deployment.nodes.len())
            .field("processes", &self.deployment.processes.len())
            .field("probe_mode", &self.probe_mode)
            .field("instrumented", &self.instrumented)
            .finish()
    }
}

impl SystemBuilder {
    /// Adds a node (processor) with a CPU type name (`"HPUX"`, …).
    pub fn node(&mut self, name: &str, cpu_type: &str) -> NodeId {
        let cpu = self.vocab.intern_cpu_type(cpu_type);
        self.deployment.add_node(name, cpu)
    }

    /// Adds a process on `node` with a server threading policy.
    pub fn process(&mut self, name: &str, node: NodeId, policy: ThreadingPolicy) -> ProcessId {
        self.policies.push(policy);
        self.deployment.add_process(name, node)
    }

    /// Sets the base probe mode (default [`ProbeMode::Latency`]). The mode
    /// becomes the base of the system's shared [`ProbePolicy`] unless
    /// [`SystemBuilder::probe_policy`] supplies one.
    pub fn probe_mode(&mut self, mode: ProbeMode) -> &mut Self {
        self.probe_mode = mode;
        self
    }

    /// Shares an external probe policy with every process monitor instead
    /// of minting one from the base mode — e.g. one policy spanning an ORB
    /// system plus COM/EJB domains so a control plane steers all of them.
    pub fn probe_policy(&mut self, policy: ProbePolicy) -> &mut Self {
        self.probe_policy = Some(policy);
        self
    }

    /// Selects instrumented or plain stubs/skeletons (default instrumented).
    pub fn instrumented(&mut self, instrumented: bool) -> &mut Self {
        self.instrumented = instrumented;
        self
    }

    /// Enables or disables collocation optimization (default enabled).
    pub fn collocation_optimization(&mut self, enabled: bool) -> &mut Self {
        self.collocation_optimization = enabled;
        self
    }

    /// Sets the synchronous reply timeout (default 30 s).
    pub fn reply_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.reply_timeout = timeout;
        self
    }

    /// Bounds each server engine's dispatch queue (default
    /// [`DEFAULT_QUEUE_CAPACITY`]); requests over the bound are shed with
    /// an overload reply and counted in
    /// `causeway_engine_shed_total{engine="orb"}`.
    pub fn engine_queue_capacity(&mut self, capacity: usize) -> &mut Self {
        self.engine_queue_capacity = capacity.max(1);
        self
    }

    /// Substitutes the wall clock shared by all monitors.
    pub fn wall_clock(&mut self, clock: Arc<dyn WallClock>) -> &mut Self {
        self.wall = Some(clock);
        self
    }

    /// Substitutes the CPU clock shared by all monitors.
    pub fn cpu_clock(&mut self, clock: Arc<dyn CpuClock>) -> &mut Self {
        self.cpu = Some(clock);
        self
    }

    /// Assembles the system. Engines are not yet running; call
    /// [`System::start`] once objects are registered.
    ///
    /// # Panics
    ///
    /// Panics if no process was declared — a system with nothing to run is
    /// a builder bug.
    pub fn build(self) -> System {
        assert!(
            !self.deployment.processes.is_empty(),
            "a system needs at least one process"
        );
        let fabric = Fabric::new();
        let catalog = InterfaceCatalog::new();
        let registries = SharedRegistries::new();
        let wall = self.wall.unwrap_or_else(|| Arc::new(SystemClock::new()));
        let cpu = self.cpu.unwrap_or_else(|| Arc::new(VirtualCpuClock::new()));
        let probe_policy =
            self.probe_policy.unwrap_or_else(|| ProbePolicy::new(self.probe_mode));
        let metrics = MetricsRegistry::new();
        let gate = Gate::new(&metrics, "orb", self.engine_queue_capacity);

        let mut orbs = Vec::new();
        for (idx, proc_info) in self.deployment.processes.iter().enumerate() {
            let process = ProcessId(idx as u16);
            let registry = ObjectRegistry::new();
            registries.insert(process, registry.clone());
            let monitor = Monitor::builder(process, proc_info.node)
                .policy(probe_policy.clone())
                .wall_clock(Arc::clone(&wall))
                .cpu_clock(Arc::clone(&cpu))
                .store(LogStore::with_metrics(&metrics))
                .build();
            let orb = Orb::new(
                process,
                proc_info.node,
                monitor,
                registry,
                registries.clone(),
                catalog.clone(),
                self.vocab.clone(),
                fabric.clone(),
                OrbConfig {
                    instrumented: self.instrumented,
                    collocation_optimization: self.collocation_optimization,
                    reply_timeout: self.reply_timeout,
                },
                gate.clone(),
            );
            orbs.push(orb);
        }

        System {
            vocab: self.vocab,
            deployment: self.deployment,
            policies: self.policies,
            probe_policy,
            metrics,
            fabric,
            catalog,
            orbs,
            gate,
            engines: Mutex::new(Vec::new()),
            started: Mutex::new(false),
        }
    }
}

/// One simulated deployment under monitoring.
pub struct System {
    vocab: SystemVocab,
    deployment: Deployment,
    policies: Vec<ThreadingPolicy>,
    probe_policy: ProbePolicy,
    metrics: MetricsRegistry,
    fabric: Fabric,
    catalog: InterfaceCatalog,
    orbs: Vec<Orb>,
    gate: Gate,
    engines: Mutex<Vec<(ProcessId, ServerEngine)>>,
    started: Mutex<bool>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("processes", &self.orbs.len())
            .field("started", &*self.started.lock())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl System {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder {
            vocab: SystemVocab::new(),
            deployment: Deployment::new(),
            policies: Vec::new(),
            probe_mode: ProbeMode::default(),
            probe_policy: None,
            instrumented: true,
            collocation_optimization: true,
            reply_timeout: Duration::from_secs(30),
            engine_queue_capacity: DEFAULT_QUEUE_CAPACITY,
            wall: None,
            cpu: None,
        }
    }

    /// The shared name vocabulary.
    pub fn vocab(&self) -> &SystemVocab {
        &self.vocab
    }

    /// The deployment topology.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The probe policy shared by every process monitor. Hand a clone to a
    /// control plane (e.g. `LiveConfig.adaptive`) to let it hot-swap
    /// per-interface stamping at runtime.
    pub fn probe_policy(&self) -> &ProbePolicy {
        &self.probe_policy
    }

    /// The registry every process's sink and engine publish to (the
    /// `causeway_sink_*` and `causeway_engine_*{engine="orb"}` series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The transport fabric (for configuring link latency).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The ORB of a process.
    ///
    /// # Panics
    ///
    /// Panics on an unknown process id.
    pub fn orb(&self, process: ProcessId) -> &Orb {
        &self.orbs[process.0 as usize]
    }

    /// A client bound to a process.
    pub fn client(&self, process: ProcessId) -> Client {
        self.orb(process).client()
    }

    /// Parses and compiles IDL source with the system's instrumentation
    /// flag, registering every interface. Returns qualified name → id.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on parse or semantic failures.
    pub fn load_idl(&self, source: &str) -> Result<HashMap<String, InterfaceId>, SystemError> {
        let spec = parse(source)?;
        let mode = if self.orbs[0].config().instrumented {
            InstrumentMode::Instrumented
        } else {
            InstrumentMode::Plain
        };
        let compiled = compile(&spec, mode)?;
        Ok(self.catalog.load(&compiled, &self.vocab))
    }

    /// Registers a servant as a component object in a process.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Unknown`] when the interface was not loaded.
    pub fn register_servant(
        &self,
        process: ProcessId,
        interface: &str,
        component: &str,
        label: &str,
        servant: Arc<dyn Servant>,
    ) -> Result<ObjRef, SystemError> {
        self.register_servant_with(process, interface, component, label, servant, false)
    }

    /// Registers a servant that uses custom marshalling (marshal-by-value):
    /// remote invocations on it execute in the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Unknown`] when the interface was not loaded.
    pub fn register_custom_marshal_servant(
        &self,
        process: ProcessId,
        interface: &str,
        component: &str,
        label: &str,
        servant: Arc<dyn Servant>,
    ) -> Result<ObjRef, SystemError> {
        self.register_servant_with(process, interface, component, label, servant, true)
    }

    fn register_servant_with(
        &self,
        process: ProcessId,
        interface: &str,
        component: &str,
        label: &str,
        servant: Arc<dyn Servant>,
        custom_marshal: bool,
    ) -> Result<ObjRef, SystemError> {
        let iface = self
            .vocab
            .interface_id(interface)
            .ok_or_else(|| SystemError::Unknown(format!("interface {interface}")))?;
        let comp = self.vocab.intern_component(component);
        let object = self.vocab.register_object(label, iface, comp, process);
        self.orb(process).registry().insert(
            object,
            ObjectRecord { servant, interface: iface, component: comp, custom_marshal },
        );
        Ok(ObjRef { object, interface: iface, owner: process })
    }

    /// Starts every process's server engine. Idempotent.
    pub fn start(&self) {
        let mut started = self.started.lock();
        if *started {
            return;
        }
        let mut engines = self.engines.lock();
        for (idx, orb) in self.orbs.iter().enumerate() {
            let process = ProcessId(idx as u16);
            let rx = self.fabric.register(process);
            let stop_tx = self.fabric.sender(process).expect("inbox just registered");
            engines.push((
                process,
                ServerEngine::start(orb.clone(), rx, stop_tx, self.policies[idx]),
            ));
        }
        *started = true;
    }

    /// Requests currently in flight (sent but not fully dispatched).
    pub fn in_flight(&self) -> i64 {
        self.gate.in_flight()
    }

    /// Does nothing: a record is visible to a drain as soon as it is
    /// pushed, on any thread. Kept for callers written against a sink that
    /// sealed at idle points.
    pub fn flush_local_logs(&self) {}

    /// Worker threads the process's engine currently tracks (live, or
    /// finished but not yet reaped). Returns 0 when the system is not
    /// started. Observability hook for engine lifecycle tests.
    pub fn tracked_workers(&self, process: ProcessId) -> usize {
        self.engines
            .lock()
            .iter()
            .find(|(p, _)| *p == process)
            .map(|(_, engine)| engine.tracked_workers())
            .unwrap_or(0)
    }

    /// Waits until no requests are in flight — the "quiescent state" after
    /// which logs may be collected.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::QuiesceTimeout`] when in-flight work remains
    /// after `timeout`.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), SystemError> {
        self.gate.quiesce(timeout).map_err(|in_flight| SystemError::QuiesceTimeout { in_flight })
    }

    /// Stops all engines and joins their threads. Idempotent.
    ///
    /// Each process gets one [`Incoming::Stop`] and leaves the fabric at
    /// once, before any engine is joined: a servant still busy in a stopped
    /// process then gets [`OrbError::ProcessUnreachable`] for a call into
    /// any stopped process, instead of queueing a request no thread will
    /// take and waiting out the reply timeout.
    pub fn shutdown(&self) {
        let mut started = self.started.lock();
        if !*started {
            return;
        }
        let mut engines = self.engines.lock();
        for (process, _) in engines.iter() {
            let _ = self.fabric.send(*process, Incoming::Stop);
            self.fabric.unregister(*process);
        }
        for (_, engine) in engines.iter_mut() {
            engine.join();
        }
        engines.clear();
        *started = false;
    }

    /// Gathers every process's scattered logs plus the vocabulary snapshot
    /// and deployment into a [`RunLog`]. Call after [`System::quiesce`].
    pub fn harvest(&self) -> RunLog {
        // One allocation for the whole run: at quiescence `len()` is exact.
        let buffered: usize = self.orbs.iter().map(|orb| orb.monitor().store().len()).sum();
        let mut records = Vec::with_capacity(buffered);
        let mut expected = 0u64;
        for orb in &self.orbs {
            let store = orb.monitor().store();
            expected += store.len() as u64;
            for mut chunk in store.drain_chunks() {
                records.append(&mut chunk.records);
            }
        }
        let mut run = RunLog::new(records, self.vocab.snapshot(), self.deployment.clone());
        run.expected_records = Some(expected);
        run
    }

    /// Total anomalies recovered by any process's monitor (0 in healthy
    /// runs).
    pub fn anomaly_count(&self) -> u64 {
        self.orbs.iter().map(|o| o.monitor().anomaly_count()).sum()
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Convenience conversion so examples can `?` across error kinds.
impl From<OrbError> for SystemError {
    fn from(e: OrbError) -> Self {
        SystemError::Unknown(e.to_string())
    }
}
