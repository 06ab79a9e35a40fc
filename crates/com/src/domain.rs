//! The COM domain: object registry, apartments, client calls, dispatch.
//!
//! A [`ComDomain`] is one COM-hosting process. It can stand alone or share a
//! vocabulary (and clocks) with a `causeway-orb` system — the latter is how
//! the CORBA/COM hybrid of `causeway-bridge` is assembled.

use crate::apartment::{
    ApartmentId, ApartmentKind, AptIncoming, OrpcMsg, OrpcReply, current_pump, enter_sta,
};
use crate::error::ComError;
use crate::hook::{Extensions, attach_ftl, extract_ftl};
use causeway_core::clock::{CpuClock, SystemClock, VirtualCpuClock, WallClock};
use causeway_core::deploy::Deployment;
use causeway_core::engine::{Gate, DEFAULT_QUEUE_CAPACITY};
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex, NodeId, ObjectId, ProcessId};
use causeway_core::metrics::MetricsRegistry;
use causeway_core::monitor::{Call, Monitor, ProbeMode, ProbePolicy};
use causeway_core::sink::LogStore;
use causeway_core::names::SystemVocab;
use causeway_core::record::FunctionKey;
use causeway_core::runlog::RunLog;
use causeway_core::sync::{Mutex, RwLock};
use causeway_core::value::Value;
use causeway_core::{tss, wire};
use causeway_idl::compile::{InstrumentMode, compile};
use causeway_idl::parse;
use crossbeam::channel::{RecvTimeoutError, Sender, bounded, unbounded};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// COM domain configuration.
#[derive(Debug, Clone)]
pub struct ComConfig {
    /// Base probe mode for the domain's monitor. Ignored when
    /// [`ComConfig::probe_policy`] supplies a shared policy.
    pub probe_mode: ProbeMode,
    /// A probe policy shared with other runtimes, so one control plane
    /// steers the COM domain's stamping too. `None` mints a private policy
    /// from `probe_mode`.
    pub probe_policy: Option<ProbePolicy>,
    /// Instrumented or plain proxies/stubs.
    pub instrumented: bool,
    /// Apply the paper's runtime fix for STA causal mingling (save/restore
    /// the thread's FTL around nested dispatch). Disable to reproduce the
    /// hazard.
    pub fix_mingling: bool,
    /// Reply timeout for synchronous calls.
    pub reply_timeout: Duration,
}

impl Default for ComConfig {
    fn default() -> Self {
        ComConfig {
            probe_mode: ProbeMode::Latency,
            probe_policy: None,
            instrumented: true,
            fix_mingling: true,
            reply_timeout: Duration::from_secs(30),
        }
    }
}

/// A COM component implementation.
pub trait ComServant: Send + Sync {
    /// Executes one method.
    fn dispatch(
        &self,
        ctx: &ComCtx,
        method: MethodIndex,
        args: Vec<Value>,
    ) -> Result<Value, (String, String)>;
}

/// A COM servant built from a closure.
pub struct FnComServant<F>(F);

impl<F> FnComServant<F>
where
    F: Fn(&ComCtx, MethodIndex, Vec<Value>) -> Result<Value, (String, String)> + Send + Sync,
{
    /// Wraps a closure.
    pub fn new(f: F) -> FnComServant<F> {
        FnComServant(f)
    }
}

impl<F> ComServant for FnComServant<F>
where
    F: Fn(&ComCtx, MethodIndex, Vec<Value>) -> Result<Value, (String, String)> + Send + Sync,
{
    fn dispatch(
        &self,
        ctx: &ComCtx,
        method: MethodIndex,
        args: Vec<Value>,
    ) -> Result<Value, (String, String)> {
        (self.0)(ctx, method, args)
    }
}

impl<F> std::fmt::Debug for FnComServant<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnComServant")
    }
}

/// Context handed to a servant during an up-call.
#[derive(Debug, Clone)]
pub struct ComCtx {
    client: ComClient,
    object: ObjectId,
}

impl ComCtx {
    /// A client for invoking other objects (children of this call).
    pub fn client(&self) -> &ComClient {
        &self.client
    }

    /// The object this up-call targets.
    pub fn object(&self) -> ObjectId {
        self.object
    }
}

/// A reference to a COM object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComObjRef {
    /// The object.
    pub object: ObjectId,
    /// Its interface.
    pub interface: InterfaceId,
    /// The apartment hosting it.
    pub apartment: ApartmentId,
}

struct DomainInner {
    process: ProcessId,
    node: NodeId,
    monitor: Monitor,
    vocab: SystemVocab,
    config: ComConfig,
    apartments: RwLock<HashMap<ApartmentId, Sender<AptIncoming>>>,
    objects: RwLock<HashMap<ObjectId, Arc<dyn ComServant>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_apartment: AtomicU32,
    metrics: MetricsRegistry,
    /// The `engine="com"` gate; its capacity bounds each apartment queue.
    gate: Gate,
}

impl std::fmt::Debug for DomainInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComDomain")
            .field("process", &self.process)
            .field("apartments", &self.apartments.read().len())
            .field("objects", &self.objects.read().len())
            .finish()
    }
}

/// One COM-hosting process. Cloning shares state.
#[derive(Debug, Clone)]
pub struct ComDomain {
    inner: Arc<DomainInner>,
}

/// Builder for [`ComDomain`].
pub struct ComDomainBuilder {
    process: ProcessId,
    node: NodeId,
    config: ComConfig,
    vocab: Option<SystemVocab>,
    wall: Option<Arc<dyn WallClock>>,
    cpu: Option<Arc<dyn CpuClock>>,
}

impl std::fmt::Debug for ComDomainBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComDomainBuilder")
            .field("process", &self.process)
            .field("config", &self.config)
            .finish()
    }
}

impl ComDomainBuilder {
    /// Sets the configuration.
    pub fn config(mut self, config: ComConfig) -> Self {
        self.config = config;
        self
    }

    /// Shares an existing vocabulary (hybrid CORBA/COM deployments).
    pub fn vocab(mut self, vocab: SystemVocab) -> Self {
        self.vocab = Some(vocab);
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

    /// Builds the domain.
    pub fn build(self) -> ComDomain {
        let probe_policy = self
            .config
            .probe_policy
            .clone()
            .unwrap_or_else(|| ProbePolicy::new(self.config.probe_mode));
        let metrics = MetricsRegistry::new();
        let monitor = Monitor::builder(self.process, self.node)
            .policy(probe_policy)
            .wall_clock(self.wall.unwrap_or_else(|| Arc::new(SystemClock::new())))
            .cpu_clock(self.cpu.unwrap_or_else(|| Arc::new(VirtualCpuClock::new())))
            .store(LogStore::with_metrics(&metrics))
            .build();
        ComDomain {
            inner: Arc::new(DomainInner {
                process: self.process,
                node: self.node,
                monitor,
                vocab: self.vocab.unwrap_or_default(),
                config: self.config,
                apartments: RwLock::new(HashMap::new()),
                objects: RwLock::new(HashMap::new()),
                handles: Mutex::new(Vec::new()),
                next_apartment: AtomicU32::new(0),
                gate: Gate::new(&metrics, "com", DEFAULT_QUEUE_CAPACITY),
                metrics,
            }),
        }
    }
}

impl ComDomain {
    /// Starts building a domain for the given process/node identity.
    pub fn builder(process: ProcessId, node: NodeId) -> ComDomainBuilder {
        ComDomainBuilder {
            process,
            node,
            config: ComConfig::default(),
            vocab: None,
            wall: None,
            cpu: None,
        }
    }

    /// The domain's vocabulary.
    pub fn vocab(&self) -> &SystemVocab {
        &self.inner.vocab
    }

    /// The process identity this domain reports in probe records.
    pub fn process(&self) -> ProcessId {
        self.inner.process
    }

    /// The node hosting this domain.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The domain's probe runtime.
    pub fn monitor(&self) -> &Monitor {
        &self.inner.monitor
    }

    /// The registry the domain's sink and engine publish to.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Parses and compiles IDL with the domain's instrumentation flag,
    /// registering every interface.
    ///
    /// # Errors
    ///
    /// Returns a rendered parse/compile failure.
    pub fn load_idl(&self, source: &str) -> Result<HashMap<String, InterfaceId>, ComError> {
        let spec = parse(source).map_err(|e| ComError::Wire(e.to_string()))?;
        let mode = if self.inner.config.instrumented {
            InstrumentMode::Instrumented
        } else {
            InstrumentMode::Plain
        };
        let compiled = compile(&spec, mode).map_err(|e| ComError::Wire(e.to_string()))?;
        Ok(compiled.register(&self.inner.vocab))
    }

    /// Creates and starts an apartment.
    pub fn create_apartment(&self, kind: ApartmentKind) -> ApartmentId {
        let id = ApartmentId(self.inner.next_apartment.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded::<AptIncoming>();
        self.inner.apartments.write().insert(id, tx.clone());
        let mut handles = self.inner.handles.lock();
        match kind {
            ApartmentKind::Sta => {
                let domain = self.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("{}-{id}-sta", self.inner.process))
                        .spawn(move || {
                            let _worker = domain.inner.gate.worker();
                            let _guard = enter_sta(rx.clone(), tx);
                            while let Ok(incoming) = rx.recv() {
                                match incoming {
                                    AptIncoming::Call(msg) => domain.dispatch(msg),
                                    AptIncoming::Stop => break,
                                }
                            }
                        })
                        .expect("spawn sta thread"),
                );
            }
            ApartmentKind::Mta(size) => {
                for i in 0..size.max(1) {
                    let (domain, rx, tx) = (self.clone(), rx.clone(), tx.clone());
                    handles.push(
                        std::thread::Builder::new()
                            .name(format!("{}-{id}-mta{i}", self.inner.process))
                            .spawn(move || {
                                let _worker = domain.inner.gate.worker();
                                while let Ok(AptIncoming::Call(msg)) = rx.recv() {
                                    domain.dispatch(msg);
                                }
                                // The stop reaches the next worker in turn.
                                let _ = tx.send(AptIncoming::Stop);
                            })
                            .expect("spawn mta worker"),
                    );
                }
            }
        }
        id
    }

    /// Registers a servant in an apartment.
    ///
    /// # Errors
    ///
    /// Returns [`ComError::UnknownMethod`] when the interface was not
    /// loaded, or [`ComError::ApartmentUnreachable`] for unknown apartments.
    pub fn register_object(
        &self,
        apartment: ApartmentId,
        interface: &str,
        component: &str,
        label: &str,
        servant: Arc<dyn ComServant>,
    ) -> Result<ComObjRef, ComError> {
        if !self.inner.apartments.read().contains_key(&apartment) {
            return Err(ComError::ApartmentUnreachable(apartment.to_string()));
        }
        let iface = self
            .inner
            .vocab
            .interface_id(interface)
            .ok_or_else(|| ComError::UnknownMethod(format!("interface {interface}")))?;
        let comp = self.inner.vocab.intern_component(component);
        let object = self
            .inner
            .vocab
            .register_object(label, iface, comp, self.inner.process);
        self.inner.objects.write().insert(object, servant);
        Ok(ComObjRef { object, interface: iface, apartment })
    }

    /// A client for invoking objects in this domain.
    pub fn client(&self) -> ComClient {
        ComClient { domain: self.clone() }
    }

    /// Calls currently in flight.
    pub fn in_flight(&self) -> i64 {
        self.inner.gate.in_flight()
    }

    /// Waits until no calls are in flight.
    ///
    /// # Errors
    ///
    /// Returns the number of stuck calls as `Err` after `timeout`.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), i64> {
        self.inner.gate.quiesce(timeout)
    }

    /// Stops all apartments and joins their threads.
    pub fn shutdown(&self) {
        let apartments: Vec<Sender<AptIncoming>> =
            self.inner.apartments.write().drain().map(|(_, tx)| tx).collect();
        for tx in apartments {
            // One stop per apartment: an MTA worker forwards it to the next.
            let _ = tx.send(AptIncoming::Stop);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Drains this domain's probe records.
    pub fn drain_records(&self) -> Vec<causeway_core::record::ProbeRecord> {
        self.inner.monitor.store().drain()
    }

    /// Drains the records into a standalone [`RunLog`] with a single-node
    /// deployment (for hybrid systems, merge `drain_records` into the ORB
    /// system's run log instead).
    pub fn harvest_standalone(&self, node_name: &str, cpu_type: &str) -> RunLog {
        let cpu = self.inner.vocab.intern_cpu_type(cpu_type);
        let mut deployment = Deployment::new();
        let node = deployment.add_node(node_name, cpu);
        deployment.add_process("com-domain", node);
        let expected = self.inner.monitor.store().len() as u64;
        let mut run = RunLog::new(self.drain_records(), self.inner.vocab.snapshot(), deployment);
        run.expected_records = Some(expected);
        run
    }

    /// Server-side dispatch on an apartment thread.
    fn dispatch(&self, msg: OrpcMsg) {
        let mut dispatch = msg.ticket.dispatch();
        let monitor = &self.inner.monitor;
        let func = FunctionKey::new(msg.interface, msg.method, msg.target);
        dispatch.op(func, &self.inner.vocab);
        // Posted (fire-and-forget) calls are the COM analog of one-way
        // invocations: they arrived on a fresh child chain.
        let kind = if msg.reply.is_none() { CallKind::Oneway } else { CallKind::Sync };

        let servant = self.inner.objects.read().get(&msg.target).cloned();
        let Some(servant) = servant else {
            if let Some(reply) = &msg.reply {
                let _ = reply.send(OrpcReply {
                    body: Err(format!("unknown object {}", msg.target)),
                    extensions: Extensions::new(),
                });
            }
            return;
        };

        let skeleton = extract_ftl(&msg.extensions)
            .filter(|_| self.inner.config.instrumented)
            .map(|ftl| {
                monitor.skeleton(func, kind, ftl, crate::hook::extract_parent(&msg.extensions))
            });

        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let args = wire::decode_args(&msg.payload);
        cpu.region_end(token);

        let result = match args {
            Ok(args) => {
                let ctx = ComCtx { client: self.client(), object: msg.target };
                servant.dispatch(&ctx, msg.method, args)
            }
            Err(e) => Err(("MarshalError".to_owned(), e.to_string())),
        };

        let mut extensions = Extensions::new();
        if let Some(skeleton) = skeleton {
            attach_ftl(&mut extensions, skeleton.finish());
        }

        if let Some(reply) = &msg.reply {
            let body = match result {
                Ok(value) => {
                    let token = cpu.region_begin();
                    let bytes = wire::encode_args(std::slice::from_ref(&value));
                    cpu.region_end(token);
                    Ok(Ok(bytes))
                }
                Err((exception, message)) => Ok(Err((exception, message))),
            };
            let _ = reply.send(OrpcReply { body, extensions });
        }
    }
}

/// A client for COM invocations. The calling thread may be an ordinary
/// driver thread (blocks on replies) or an STA thread (pumps its message
/// queue while waiting — the reentrancy hazard).
#[derive(Debug, Clone)]
pub struct ComClient {
    domain: ComDomain,
}

impl ComClient {
    /// Starts a new causal chain on the calling thread.
    pub fn begin_root(&self) {
        self.domain.inner.monitor.begin_root();
    }

    /// Invokes a method by name and waits for the result.
    ///
    /// # Errors
    ///
    /// Returns [`ComError`] for unknown methods/objects, timeouts,
    /// marshalling failures and application exceptions.
    pub fn invoke(
        &self,
        target: &ComObjRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, ComError> {
        let (reply_tx, reply_rx) = bounded::<OrpcReply>(1);
        let (func, call) = self.send(target, method, args, Some(reply_tx))?;
        let reply_timeout = self.domain.inner.config.reply_timeout;
        let closed = || ComError::ApartmentUnreachable("reply channel closed".into());
        let deadline = Instant::now() + reply_timeout;
        let reply = loop {
            // An STA thread pumps its own queue while waiting — the message
            // loop of §2.2.
            if let Some((pump_rx, pump_tx)) = current_pump() {
                crossbeam::channel::select! {
                    recv(reply_rx) -> r => break r.map_err(|_| closed()),
                    recv(pump_rx) -> incoming => match incoming {
                        Ok(AptIncoming::Call(nested)) => {
                            self.dispatch_nested(nested);
                        }
                        Ok(AptIncoming::Stop) => {
                            // Re-post: shutdown proceeds once this call ends.
                            let _ = pump_tx.send(AptIncoming::Stop);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => {}
                    },
                    default(Duration::from_millis(5)) => {
                        if Instant::now() >= deadline {
                            break Err(ComError::Timeout(format!("{func}")));
                        }
                    }
                }
            } else {
                break reply_rx.recv_timeout(reply_timeout).map_err(|e| match e {
                    RecvTimeoutError::Timeout => ComError::Timeout(format!("{func}")),
                    RecvTimeoutError::Disconnected => closed(),
                });
            }
        };
        let reply = reply?;
        if let Some(call) = call {
            call.finish(extract_ftl(&reply.extensions));
        }

        match reply.body {
            Err(runtime) => Err(ComError::UnknownObject(runtime)),
            Ok(Err((exception, message))) => Err(ComError::Application(exception, message)),
            Ok(Ok(bytes)) => decode_single(&bytes),
        }
    }

    /// Posts a fire-and-forget call — the COM analog of a CORBA one-way
    /// invocation (a `PostMessage`-style asynchronous request). The callee
    /// executes on a *fresh child chain* linked to this caller's chain;
    /// the channel hook carries both the child FTL and the parent marker.
    ///
    /// # Errors
    ///
    /// Returns [`ComError`] for unknown methods or unreachable apartments.
    pub fn post(
        &self,
        target: &ComObjRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(), ComError> {
        // The proxy probe closes as soon as the call is enqueued.
        self.send(target, method, args, None).map(drop)
    }

    /// The proxy half of [`ComClient::invoke`] (with a `reply` sender) and
    /// [`ComClient::post`] (without): resolves the method, opens the proxy
    /// probe, marshals the arguments with the FTL — and, for a posted call,
    /// the parent marker — in the extension headers, and enqueues the call
    /// on its apartment. Returns the open proxy bracket of an instrumented
    /// call; on failure it is already closed.
    fn send(
        &self,
        target: &ComObjRef,
        method: &str,
        args: Vec<Value>,
        reply: Option<Sender<OrpcReply>>,
    ) -> Result<(FunctionKey, Option<Call<'_>>), ComError> {
        let inner = &self.domain.inner;
        let midx = inner
            .vocab
            .method_index(target.interface, method)
            .ok_or_else(|| ComError::UnknownMethod(format!("{method} on {}", target.interface)))?;

        let monitor = &inner.monitor;
        let func = FunctionKey::new(target.interface, midx, target.object);
        let kind = if reply.is_some() { CallKind::Sync } else { CallKind::Oneway };

        let call = inner.config.instrumented.then(|| monitor.call(func, kind));

        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let payload = wire::encode_args(&args);
        let mut extensions = Extensions::new();
        if let Some(call) = &call {
            attach_ftl(&mut extensions, call.wire_ftl());
            if let Some(parent) = call.oneway_parent() {
                crate::hook::attach_parent(&mut extensions, parent);
            }
        }
        cpu.region_end(token);

        let unreachable = || ComError::ApartmentUnreachable(target.apartment.to_string());
        let apt_tx = inner.apartments.read().get(&target.apartment).cloned();
        let refused = match apt_tx {
            None => unreachable(),
            // Bounded admission: a full apartment queue sheds the call with
            // an explicit overload error instead of queueing without bound
            // (posting callers do not wait, which is exactly how an
            // open-loop burst overruns an unbounded queue).
            Some(apt_tx) if !inner.gate.admits(apt_tx.len()) => ComError::Overloaded(format!(
                "apartment {} queue at capacity",
                target.apartment
            )),
            Some(apt_tx) => {
                let msg = OrpcMsg {
                    target: target.object,
                    interface: target.interface,
                    method: midx,
                    payload,
                    extensions,
                    reply,
                    ticket: inner.gate.enter(),
                };
                match apt_tx.send(AptIncoming::Call(msg)) {
                    Ok(()) => return Ok((func, call)),
                    Err(_) => unreachable(),
                }
            }
        };
        Err(refused)
    }

    /// Pumps the calling STA thread's message queue, dispatching every call
    /// currently waiting, and returns how many were served. Servants call
    /// this to model modal waits (`CoWaitForMultipleHandles`, a message box,
    /// a UI loop) — the other place where STA reentrancy strikes. On a
    /// non-STA thread this is a no-op.
    ///
    /// With [`ComConfig::fix_mingling`] disabled, a pump in the middle of a
    /// call's implementation lets the nested dispatch trample the thread's
    /// FTL, so the current call's *subsequent* child invocations continue
    /// the wrong causal chain — the mingling §2.2 warns about.
    pub fn pump(&self) -> usize {
        let Some((pump_rx, pump_tx)) = current_pump() else {
            return 0;
        };
        let mut served = 0usize;
        while let Ok(incoming) = pump_rx.try_recv() {
            match incoming {
                AptIncoming::Call(nested) => {
                    self.dispatch_nested(nested);
                    served += 1;
                }
                AptIncoming::Stop => {
                    let _ = pump_tx.send(AptIncoming::Stop);
                    break;
                }
            }
        }
        served
    }

    /// Dispatches a nested call picked up while pumping. With the mingling
    /// fix, the thread's FTL is saved before and restored after — the
    /// paper's "limited amount of instrumentation before and after call
    /// sending and dispatching".
    fn dispatch_nested(&self, msg: OrpcMsg) {
        if self.domain.inner.config.fix_mingling {
            let saved = tss::swap(None);
            self.domain.dispatch(msg);
            tss::swap(saved);
        } else {
            self.domain.dispatch(msg);
        }
    }
}

fn decode_single(bytes: &[u8]) -> Result<Value, ComError> {
    let mut values = wire::decode_args(bytes).map_err(|e| ComError::Wire(e.to_string()))?;
    match values.len() {
        1 => Ok(values.pop().expect("length checked")),
        n => Err(ComError::Wire(format!("reply carried {n} values"))),
    }
}
