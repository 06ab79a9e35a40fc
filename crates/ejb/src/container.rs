//! The EJB container: bean deployment, JNDI naming, pooled dispatch, and
//! the monitored business proxy.

use crate::bean::{BeanCtx, SessionBean};
use crate::error::EjbError;
use crate::interceptor::{ContainerInterceptor, InvocationInfo};
use crate::pool::InstancePool;
use causeway_core::clock::{CpuClock, SystemClock, VirtualCpuClock, WallClock};
use causeway_core::deploy::Deployment;
use causeway_core::engine::{Gate, Ticket, DEFAULT_QUEUE_CAPACITY};
use causeway_core::event::CallKind;
use causeway_core::ftl::FunctionTxLog;
use causeway_core::ids::{InterfaceId, NodeId, ObjectId, ProcessId};
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::{Monitor, ProbeMode, ProbePolicy};
use causeway_core::names::SystemVocab;
use causeway_core::runlog::RunLog;
use causeway_core::sink::LogStore;
use causeway_core::sync::{Mutex, RwLock};
use causeway_core::value::Value;
use causeway_core::wire;
use causeway_idl::compile::{InstrumentMode, compile};
use causeway_idl::parse;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, bounded, unbounded};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Container configuration.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Base probe mode for this container's monitor. Ignored when
    /// [`ContainerConfig::probe_policy`] supplies a shared policy.
    pub probe_mode: ProbeMode,
    /// A probe policy shared with other runtimes, so one control plane
    /// steers the container's stamping too. `None` mints a private policy
    /// from `probe_mode`.
    pub probe_policy: Option<ProbePolicy>,
    /// Instrumented (probing) or plain business proxies.
    pub instrumented: bool,
    /// Container dispatch threads.
    pub dispatch_threads: usize,
    /// Default instance-pool bound per bean.
    pub default_pool_size: usize,
    /// Reply timeout for business calls.
    pub reply_timeout: Duration,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            probe_mode: ProbeMode::Latency,
            probe_policy: None,
            instrumented: true,
            dispatch_threads: 4,
            default_pool_size: 8,
            reply_timeout: Duration::from_secs(30),
        }
    }
}

/// A remote business reference bound in JNDI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeanRef {
    /// The bean deployment identity.
    pub bean: ObjectId,
    /// The business interface.
    pub interface: InterfaceId,
    /// The container hosting the bean.
    pub container: ProcessId,
}

/// The JNDI-style shared naming registry. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct Jndi {
    inner: Arc<RwLock<HashMap<String, BeanRef>>>,
}

impl Jndi {
    /// Creates an empty registry.
    pub fn new() -> Jndi {
        Jndi::default()
    }

    /// Binds a name to a bean reference (rebinding replaces).
    pub fn bind(&self, name: &str, bean: BeanRef) {
        self.inner.write().insert(name.to_owned(), bean);
    }

    /// Looks a name up.
    ///
    /// # Errors
    ///
    /// Returns [`EjbError::NameNotFound`] for unbound names.
    pub fn lookup(&self, name: &str) -> Result<BeanRef, EjbError> {
        self.inner
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| EjbError::NameNotFound(name.to_owned()))
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The work-area context attached to every container invocation: a tagged
/// byte map, as the J2EE activity/work-area services carried. The FTL rides
/// here under [`FTL_WORK_AREA_KEY`].
pub type WorkArea = HashMap<String, Vec<u8>>;

/// The work-area key carrying the FTL.
pub const FTL_WORK_AREA_KEY: &str = "causeway.ftl";

struct WorkItem {
    bean: ObjectId,
    interface: InterfaceId,
    method: causeway_core::ids::MethodIndex,
    payload: Vec<u8>,
    work_area: WorkArea,
    reply: Sender<WorkReply>,
    /// Counts the call in flight in the domain's gate until the item is
    /// dropped; stamped at enqueue for
    /// `causeway_engine_queue_wait_ns{engine="ejb"}`.
    ticket: Ticket,
}

struct WorkReply {
    body: Result<Result<Vec<u8>, (String, String)>, String>,
    work_area: WorkArea,
}

struct BeanDeployment {
    pool: InstancePool,
}

struct ContainerInner {
    process: ProcessId,
    node: NodeId,
    monitor: Monitor,
    vocab: SystemVocab,
    jndi: Jndi,
    config: ContainerConfig,
    beans: RwLock<HashMap<ObjectId, Arc<BeanDeployment>>>,
    interceptors: RwLock<Vec<Arc<dyn ContainerInterceptor>>>,
    /// Routing + accounting shared by every container of one domain.
    domain: Arc<DomainShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for ContainerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("process", &self.process)
            .field("beans", &self.beans.read().len())
            .finish()
    }
}

enum ContainerMsg {
    Work(WorkItem),
    Stop,
}

/// State shared by every container of one routing domain.
struct DomainShared {
    routes: RwLock<HashMap<ProcessId, Sender<ContainerMsg>>>,
    /// The domain's `engine="ejb"` gate: a call enters at the proxy and is
    /// released by the dispatching container, which may be a different
    /// one. Its capacity bounds each container's dispatch queue.
    gate: Gate,
}

/// One EJB container (one simulated process). Cloning shares state.
#[derive(Debug, Clone)]
pub struct Container {
    inner: Arc<ContainerInner>,
}

/// Builder for [`Container`].
pub struct ContainerBuilder {
    process: ProcessId,
    node: NodeId,
    config: ContainerConfig,
    vocab: Option<SystemVocab>,
    jndi: Option<Jndi>,
    domain: Option<Arc<DomainShared>>,
    wall: Option<Arc<dyn WallClock>>,
    cpu: Option<Arc<dyn CpuClock>>,
    metrics: Option<MetricsRegistry>,
}

impl std::fmt::Debug for ContainerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContainerBuilder").field("process", &self.process).finish()
    }
}

impl ContainerBuilder {
    /// Sets the configuration.
    pub fn config(mut self, config: ContainerConfig) -> Self {
        self.config = config;
        self
    }

    /// Shares a vocabulary (for hybrid deployments).
    pub fn vocab(mut self, vocab: SystemVocab) -> Self {
        self.vocab = Some(vocab);
        self
    }

    /// Shares a naming registry with sibling containers.
    pub fn jndi(mut self, jndi: Jndi) -> Self {
        self.jndi = Some(jndi);
        self
    }

    /// Substitutes the wall clock.
    pub fn wall_clock(mut self, clock: Arc<dyn WallClock>) -> Self {
        self.wall = Some(clock);
        self
    }

    /// Substitutes the CPU clock.
    pub fn cpu_clock(mut self, clock: Arc<dyn CpuClock>) -> Self {
        self.cpu = Some(clock);
        self
    }

    /// Joins the routing domain of `peer` so the two containers can call
    /// each other. Containers built without this form a new domain. The
    /// vocabulary, naming registry and metrics registry default to the
    /// peer's.
    pub fn join(mut self, peer: &Container) -> Self {
        self.domain = Some(Arc::clone(&peer.inner.domain));
        if self.vocab.is_none() {
            self.vocab = Some(peer.inner.vocab.clone());
        }
        if self.jndi.is_none() {
            self.jndi = Some(peer.inner.jndi.clone());
        }
        if self.metrics.is_none() {
            self.metrics = Some(peer.inner.metrics.clone());
        }
        self
    }

    /// Builds and starts the container's dispatch workers.
    pub fn build(self) -> Container {
        let probe_policy = self
            .config
            .probe_policy
            .clone()
            .unwrap_or_else(|| ProbePolicy::new(self.config.probe_mode));
        let metrics = self.metrics.unwrap_or_default();
        let domain = self.domain.unwrap_or_else(|| {
            Arc::new(DomainShared {
                routes: RwLock::default(),
                gate: Gate::new(&metrics, "ejb", DEFAULT_QUEUE_CAPACITY),
            })
        });
        let monitor = Monitor::builder(self.process, self.node)
            .policy(probe_policy)
            .wall_clock(self.wall.unwrap_or_else(|| Arc::new(SystemClock::new())))
            .cpu_clock(self.cpu.unwrap_or_else(|| Arc::new(VirtualCpuClock::new())))
            .store(LogStore::with_metrics(&metrics))
            .build();
        let container = Container {
            inner: Arc::new(ContainerInner {
                process: self.process,
                node: self.node,
                monitor,
                vocab: self.vocab.unwrap_or_default(),
                jndi: self.jndi.unwrap_or_default(),
                config: self.config,
                beans: RwLock::new(HashMap::new()),
                interceptors: RwLock::new(Vec::new()),
                domain,
                workers: Mutex::new(Vec::new()),
                metrics,
            }),
        };
        container.start();
        container
    }
}

impl Container {
    /// Starts building a container with the given identity.
    pub fn builder(process: ProcessId, node: NodeId) -> ContainerBuilder {
        ContainerBuilder {
            process,
            node,
            config: ContainerConfig::default(),
            vocab: None,
            jndi: None,
            domain: None,
            wall: None,
            cpu: None,
            metrics: None,
        }
    }

    fn start(&self) {
        let (tx, rx): (Sender<ContainerMsg>, Receiver<ContainerMsg>) = unbounded();
        self.inner.domain.routes.write().insert(self.inner.process, tx.clone());
        let mut workers = self.inner.workers.lock();
        for i in 0..self.inner.config.dispatch_threads.max(1) {
            let (container, rx, tx) = (self.clone(), rx.clone(), tx.clone());
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{}-ejb{}", self.inner.process, i))
                    .spawn(move || {
                        let _worker = container.inner.domain.gate.worker();
                        while let Ok(ContainerMsg::Work(item)) = rx.recv() {
                            container.dispatch(item);
                        }
                        // The stop reaches the next worker in turn.
                        let _ = tx.send(ContainerMsg::Stop);
                    })
                    .expect("spawn dispatch worker"),
            );
        }
    }

    /// The container's vocabulary.
    pub fn vocab(&self) -> &SystemVocab {
        &self.inner.vocab
    }

    /// The shared naming registry.
    pub fn jndi(&self) -> &Jndi {
        &self.inner.jndi
    }

    /// The container's monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.inner.monitor
    }

    /// The registry the container's sink and engine publish to.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Parses and compiles business-interface IDL with this container's
    /// instrumentation flag.
    ///
    /// # Errors
    ///
    /// Returns [`EjbError::Definition`] on parse/compile failures.
    pub fn load_idl(&self, source: &str) -> Result<(), EjbError> {
        let spec = parse(source).map_err(|e| EjbError::Definition(e.to_string()))?;
        let mode = if self.inner.config.instrumented {
            InstrumentMode::Instrumented
        } else {
            InstrumentMode::Plain
        };
        let compiled = compile(&spec, mode).map_err(|e| EjbError::Definition(e.to_string()))?;
        compiled.register(&self.inner.vocab);
        Ok(())
    }

    /// Registers a container-wide interceptor (appends to the chain).
    pub fn add_interceptor(&self, interceptor: Arc<dyn ContainerInterceptor>) {
        self.inner.interceptors.write().push(interceptor);
    }

    /// Deploys a bean: binds `name` in JNDI to a pooled deployment of the
    /// given business interface, with instances created by `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`EjbError::Definition`] when the interface was not loaded.
    pub fn deploy(
        &self,
        name: &str,
        interface: &str,
        pool_size: Option<usize>,
        factory: Arc<dyn Fn() -> Box<dyn SessionBean> + Send + Sync>,
    ) -> Result<BeanRef, EjbError> {
        let iface = self
            .inner
            .vocab
            .interface_id(interface)
            .ok_or_else(|| EjbError::Definition(format!("interface {interface} not loaded")))?;
        let component = self.inner.vocab.intern_component(name);
        let bean = self
            .inner
            .vocab
            .register_object(name, iface, component, self.inner.process);
        self.inner.beans.write().insert(
            bean,
            Arc::new(BeanDeployment {
                pool: InstancePool::new(
                    pool_size.unwrap_or(self.inner.config.default_pool_size),
                    factory,
                ),
            }),
        );
        let bean_ref = BeanRef { bean, interface: iface, container: self.inner.process };
        self.inner.jndi.bind(name, bean_ref);
        Ok(bean_ref)
    }

    /// The process identity this container reports in probe records.
    pub fn process(&self) -> ProcessId {
        self.inner.process
    }

    /// The node hosting this container.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// A client bound to this container (its invocations originate here).
    pub fn client(&self) -> EjbClient {
        EjbClient { container: Some(self.clone()) }
    }

    /// Calls currently in flight across the routing domain.
    pub fn in_flight(&self) -> i64 {
        self.inner.domain.gate.in_flight()
    }

    /// Waits until no calls are in flight.
    ///
    /// # Errors
    ///
    /// Returns the stuck count after `timeout`.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), i64> {
        self.inner.domain.gate.quiesce(timeout)
    }

    /// Stops this container's dispatch workers.
    pub fn shutdown(&self) {
        if let Some(tx) = self.inner.domain.routes.write().remove(&self.inner.process) {
            // One stop: each worker forwards it to the next.
            let _ = tx.send(ContainerMsg::Stop);
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Drains this container's probe records.
    pub fn drain_records(&self) -> Vec<causeway_core::record::ProbeRecord> {
        self.inner.monitor.store().drain()
    }

    /// Drains into a standalone [`RunLog`] with a single-node deployment.
    pub fn harvest_standalone(&self, node_name: &str, cpu_type: &str) -> RunLog {
        let cpu = self.inner.vocab.intern_cpu_type(cpu_type);
        let mut deployment = Deployment::new();
        let node = deployment.add_node(node_name, cpu);
        deployment.add_process("ejb-container", node);
        let expected = self.inner.monitor.store().len() as u64;
        let mut run = RunLog::new(self.drain_records(), self.inner.vocab.snapshot(), deployment);
        run.expected_records = Some(expected);
        run
    }

    /// Server-side dispatch: skeleton probe, pool checkout, interceptor
    /// chain, business method, checkin, reply.
    fn dispatch(&self, item: WorkItem) {
        let mut dispatch = item.ticket.dispatch();
        let monitor = &self.inner.monitor;
        let func = causeway_core::record::FunctionKey::new(item.interface, item.method, item.bean);
        dispatch.op(func, &self.inner.vocab);

        let deployment = self.inner.beans.read().get(&item.bean).cloned();
        let Some(deployment) = deployment else {
            let _ = item.reply.send(WorkReply {
                body: Err(format!("no bean {} in {}", item.bean, self.inner.process)),
                work_area: WorkArea::new(),
            });
            return;
        };

        // Skeleton probe: install the FTL from the work area.
        let skeleton = item
            .work_area
            .get(FTL_WORK_AREA_KEY)
            .filter(|_| self.inner.config.instrumented)
            .and_then(|bytes| FunctionTxLog::from_wire(bytes))
            .map(|ftl| monitor.skeleton(func, CallKind::Sync, ftl, None));

        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let args = wire::decode_args(&item.payload);
        cpu.region_end(token);

        let result = match args {
            Ok(args) => {
                let mut instance = deployment.pool.checkout();
                let info = InvocationInfo { bean: item.bean, method: item.method };
                let interceptors: Vec<_> = self.inner.interceptors.read().clone();
                for interceptor in &interceptors {
                    interceptor.before(&info);
                }
                let ctx = BeanCtx::new(self.client(), item.bean);
                let result = instance.business(&ctx, item.method, args);
                for interceptor in interceptors.iter().rev() {
                    interceptor.after(&info, result.is_ok());
                }
                deployment.pool.checkin(instance);
                result
            }
            Err(e) => Err(("MarshalError".to_owned(), e.to_string())),
        };

        let mut work_area = WorkArea::new();
        if let Some(skeleton) = skeleton {
            work_area.insert(FTL_WORK_AREA_KEY.to_owned(), skeleton.finish().to_wire().to_vec());
        }

        let body = match result {
            Ok(value) => {
                let token = cpu.region_begin();
                let bytes = wire::encode_args(std::slice::from_ref(&value));
                cpu.region_end(token);
                Ok(Ok(bytes))
            }
            Err(app) => Ok(Err(app)),
        };
        let _ = item.reply.send(WorkReply { body, work_area });
    }
}

/// A client for business invocations; the generated proxy analog.
#[derive(Debug, Clone)]
pub struct EjbClient {
    container: Option<Container>,
}

impl EjbClient {
    /// A client bound to no container; every call fails. Exists for unit
    /// tests of bean code that never invokes children.
    pub fn detached() -> EjbClient {
        EjbClient { container: None }
    }

    /// Starts a new causal chain on the calling thread.
    pub fn begin_root(&self) {
        if let Some(container) = &self.container {
            container.inner.monitor.begin_root();
        }
    }

    /// Looks up a JNDI name and invokes a business method on it.
    ///
    /// # Errors
    ///
    /// Returns [`EjbError`] for unbound names, unknown methods, transport
    /// failures, timeouts, and application exceptions.
    pub fn call(&self, name: &str, method: &str, args: Vec<Value>) -> Result<Value, EjbError> {
        let container = self
            .container
            .as_ref()
            .ok_or_else(|| EjbError::ContainerUnreachable("detached client".into()))?;
        let target = container.inner.jndi.lookup(name)?;
        self.call_ref(&target, method, args)
    }

    /// Invokes a business method on a resolved reference.
    ///
    /// # Errors
    ///
    /// As for [`EjbClient::call`].
    pub fn call_ref(
        &self,
        target: &BeanRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, EjbError> {
        let container = self
            .container
            .as_ref()
            .ok_or_else(|| EjbError::ContainerUnreachable("detached client".into()))?;
        let inner = &container.inner;
        let midx = inner
            .vocab
            .method_index(target.interface, method)
            .ok_or_else(|| EjbError::UnknownMethod(format!("{method} on {}", target.interface)))?;

        let monitor = &inner.monitor;
        let func = causeway_core::record::FunctionKey::new(target.interface, midx, target.bean);

        // Proxy-side probes 1 and, when the guard finishes or drops, 4.
        let call = inner.config.instrumented.then(|| monitor.call(func, CallKind::Sync));

        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let payload = wire::encode_args(&args);
        let mut work_area = WorkArea::new();
        if let Some(call) = &call {
            work_area.insert(FTL_WORK_AREA_KEY.to_owned(), call.wire_ftl().to_wire().to_vec());
        }
        cpu.region_end(token);

        let unreachable = || EjbError::ContainerUnreachable(target.container.to_string());
        let (reply_tx, reply_rx) = bounded(1);
        let route = inner.domain.routes.read().get(&target.container).cloned();
        match route {
            None => Err(unreachable()),
            // Bounded admission: a full container queue sheds the call with
            // an explicit overload error instead of queueing without bound.
            Some(route) if !inner.domain.gate.admits(route.len()) => Err(EjbError::Overloaded(
                format!("{} dispatch queue at capacity", target.container),
            )),
            Some(route) => route
                .send(ContainerMsg::Work(WorkItem {
                    bean: target.bean,
                    interface: target.interface,
                    method: midx,
                    payload,
                    work_area,
                    reply: reply_tx,
                    ticket: inner.domain.gate.enter(),
                }))
                .map_err(|_| unreachable()),
        }?;
        let reply = reply_rx.recv_timeout(inner.config.reply_timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => EjbError::Timeout(format!("{func}")),
            RecvTimeoutError::Disconnected => EjbError::ContainerUnreachable(format!(
                "{} dropped the reply to {func}",
                target.container
            )),
        })?;
        if let Some(call) = call {
            let ftl = reply.work_area.get(FTL_WORK_AREA_KEY);
            call.finish(ftl.and_then(|bytes| FunctionTxLog::from_wire(bytes)));
        }

        match reply.body {
            Err(runtime) => Err(EjbError::ContainerUnreachable(runtime)),
            Ok(Err((exception, message))) => Err(EjbError::Application(exception, message)),
            Ok(Ok(bytes)) => {
                let mut values =
                    wire::decode_args(&bytes).map_err(|e| EjbError::Definition(e.to_string()))?;
                values
                    .pop()
                    .ok_or_else(|| EjbError::Definition("empty reply".into()))
            }
        }
    }
}
