//! The client side: object references and the generic instrumented stub.
//!
//! [`Client::invoke`] is the paper's Figure 1 client path — probe 1 before
//! marshalling, probe 4 after the reply — with the routing decisions of
//! §2.2: collocation optimization (in-process fast path with degenerate
//! probes), custom marshalling (remote object executed in the client's
//! thread), and one-way dispatch (fire a fresh child chain and return).

use crate::error::OrbError;
use crate::interceptor::{PendingReply, RequestInfo, ServiceContexts};
use crate::orb::Orb;
use crate::registry::ObjectRecord;
use crate::servant::ServerCtx;
use crate::transport::{ConnKey, Incoming, RequestMsg};
use causeway_core::event::CallKind;
use causeway_core::ftl::FunctionTxLog;
use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId, ProcessId};
use causeway_core::record::FunctionKey;
use causeway_core::value::Value;
use causeway_core::wire;
use crossbeam::channel::{bounded, RecvTimeoutError};

/// A location-transparent reference to a component object.
///
/// Plain data (`Copy`): workloads wire their topology by handing `ObjRef`s
/// around; invocation happens through a process-bound [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef {
    /// The target object.
    pub object: ObjectId,
    /// The interface it implements.
    pub interface: InterfaceId,
    /// The process hosting it.
    pub owner: ProcessId,
}

/// A client bound to one process — the origin of the invocations it issues.
#[derive(Debug, Clone)]
pub struct Client {
    orb: Orb,
}

impl Client {
    pub(crate) fn new(orb: Orb) -> Client {
        Client { orb }
    }

    /// The process this client issues invocations from.
    pub fn process(&self) -> ProcessId {
        self.orb.process()
    }

    /// Starts a new causal chain on the calling thread: the next invocation
    /// becomes the root of a fresh tree in the DSCG. Call between top-level
    /// transactions.
    pub fn begin_root(&self) {
        self.orb.monitor().begin_root();
    }

    /// Resolves a method name to its declaration index on an interface.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::UnknownMethod`] when the interface has no such
    /// method.
    pub fn resolve(&self, target: &ObjRef, method: &str) -> Result<MethodIndex, OrbError> {
        self.orb
            .inner
            .vocab
            .method_index(target.interface, method)
            .ok_or_else(|| {
                OrbError::UnknownMethod(format!("{method} on {}", target.interface))
            })
    }

    /// Invokes a synchronous method by name and waits for the result.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError`] for unknown methods, one-way methods (use
    /// [`Client::invoke_oneway`]), transport failures, timeouts, marshalling
    /// failures, and application exceptions raised by the servant.
    pub fn invoke(
        &self,
        target: &ObjRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, OrbError> {
        let midx = self.resolve(target, method)?;
        if self.is_oneway(target, midx) {
            return Err(OrbError::CallKindMismatch(format!(
                "{method} is oneway; use invoke_oneway"
            )));
        }
        self.invoke_sync_idx(target, midx, args)
    }

    /// Invokes a one-way method by name: returns as soon as the request is
    /// handed to the transport. The callee executes on its own causal chain,
    /// linked to this caller's chain as parent.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError`] for unknown methods, synchronous methods, and
    /// transport failures.
    pub fn invoke_oneway(
        &self,
        target: &ObjRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(), OrbError> {
        let midx = self.resolve(target, method)?;
        if !self.is_oneway(target, midx) {
            return Err(OrbError::CallKindMismatch(format!(
                "{method} is synchronous; use invoke"
            )));
        }
        self.invoke_oneway_idx(target, midx, args)
    }

    fn is_oneway(&self, target: &ObjRef, midx: MethodIndex) -> bool {
        self.orb
            .inner
            .catalog
            .is_oneway(target.interface, midx)
            .unwrap_or(false)
    }

    fn lookup_record(&self, target: &ObjRef) -> Option<ObjectRecord> {
        if target.owner == self.orb.process() {
            self.orb.inner.registry.lookup(target.object)
        } else {
            self.orb
                .inner
                .registries
                .of(target.owner)?
                .lookup(target.object)
        }
    }

    /// Synchronous invocation by method index.
    pub fn invoke_sync_idx(
        &self,
        target: &ObjRef,
        midx: MethodIndex,
        args: Vec<Value>,
    ) -> Result<Value, OrbError> {
        let local = target.owner == self.orb.process();
        let record = self.lookup_record(target);

        // Custom marshalling turns remote calls into collocated calls; the
        // collocation optimization does the same for in-process calls.
        let fast_kind = match &record {
            Some(r) if r.custom_marshal && !local => Some(CallKind::CustomMarshal),
            Some(_) if local && self.orb.config().collocation_optimization => {
                Some(CallKind::Collocated)
            }
            _ => None,
        };

        if let (Some(kind), Some(record)) = (fast_kind, record) {
            return self.invoke_collocated(target, midx, args, kind, record);
        }
        self.invoke_remote(target, midx, args)
    }

    /// The collocated fast path: no marshalling, no engine; the stub/skeleton
    /// start (end) probes degenerate into back-to-back probes on the caller
    /// thread. A panicking servant unwinds the skeleton, then the stub.
    fn invoke_collocated(
        &self,
        target: &ObjRef,
        midx: MethodIndex,
        args: Vec<Value>,
        kind: CallKind,
        record: ObjectRecord,
    ) -> Result<Value, OrbError> {
        let monitor = self.orb.monitor();
        let func = FunctionKey::new(target.interface, midx, target.object);

        let call = self.orb.config().instrumented.then(|| monitor.call(func, kind));
        let skeleton = call.as_ref().map(|c| monitor.skeleton(func, kind, c.wire_ftl(), None));
        let ctx = ServerCtx::new(self.clone(), target.object);
        let result = record.servant.dispatch(&ctx, midx, args);
        if let (Some(call), Some(skeleton)) = (call, skeleton) {
            call.finish(Some(skeleton.finish()));
        }
        result.map_err(OrbError::Application)
    }

    /// The remote path: full marshalling through the transport and the
    /// target's server engine. Also taken by in-process calls when
    /// collocation optimization is disabled (they are then traced as
    /// ordinary synchronous calls, exactly like the paper's "collocated
    /// calls with optimization turned off"). A failed call closes its stub
    /// without a reply FTL — the missing skeleton events surface in the
    /// analyzer's abnormal-transition report, which is exactly how a lost
    /// request should look.
    fn invoke_remote(
        &self,
        target: &ObjRef,
        midx: MethodIndex,
        args: Vec<Value>,
    ) -> Result<Value, OrbError> {
        let monitor = self.orb.monitor();
        let func = FunctionKey::new(target.interface, midx, target.object);
        let kind = CallKind::Sync;

        let call = self.orb.config().instrumented.then(|| monitor.call(func, kind));

        // Marshal, charged to this thread's CPU.
        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let payload = match &call {
            Some(call) => wire::encode_args_with_ftls(&args, &[call.wire_ftl()]),
            None => wire::encode_args(&args),
        };
        cpu.region_end(token);

        // Client-side interception points (pre-invoke).
        let mut contexts = ServiceContexts::new();
        let pending = self.send_request(RequestInfo { func, kind }, &mut contexts);

        let delay = self.orb.inner.fabric.delay(self.orb.process(), target.owner);
        if !delay.is_zero() {
            std::thread::sleep(delay); // request transit
        }

        let (tx, rx) = bounded(1);
        let sent = self.orb.inner.fabric.send(
            target.owner,
            Incoming::Request(
                RequestMsg {
                    conn: ConnKey(self.orb.process()),
                    target: target.object,
                    interface: target.interface,
                    method: midx,
                    oneway: false,
                    payload,
                    contexts,
                    reply: Some(tx),
                    net_delay: std::time::Duration::ZERO,
                },
                self.orb.gate().enter(),
            ),
        );
        sent.map_err(OrbError::ProcessUnreachable)?;

        let reply = rx.recv_timeout(self.orb.config().reply_timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => OrbError::Timeout(format!("{func} on {}", target.owner)),
            RecvTimeoutError::Disconnected => OrbError::ProcessUnreachable(format!(
                "{} dropped the reply to {func}",
                target.owner
            )),
        })?;

        if !delay.is_zero() {
            std::thread::sleep(delay); // reply transit
        }

        // Client-side interception points (post-invoke).
        pending.receive_reply(&reply.contexts);
        let body = reply.body.map_err(OrbError::UnknownObject)?;

        let token = cpu.region_begin();
        let split = if call.is_some() {
            wire::split_ftl(body).map(|(body, ftl)| (body, Some(ftl)))
        } else {
            Ok((body, None))
        };
        let decoded = split.map(|(body, ftl)| (crate::reply::decode_reply(&body), ftl));
        cpu.region_end(token);

        let (result, reply_ftl) = decoded?;
        if let Some(call) = call {
            call.finish(reply_ftl);
        }
        result?.map_err(OrbError::Application)
    }

    /// Runs the client-side `send_request` points of one request and
    /// returns its pending `receive_reply` points.
    fn send_request(&self, info: RequestInfo, contexts: &mut ServiceContexts) -> PendingReply {
        PendingReply::send(&self.orb.inner.interceptors.read(), info, contexts)
    }

    /// One-way invocation by method index.
    pub fn invoke_oneway_idx(
        &self,
        target: &ObjRef,
        midx: MethodIndex,
        args: Vec<Value>,
    ) -> Result<(), OrbError> {
        let monitor = self.orb.monitor();
        let func = FunctionKey::new(target.interface, midx, target.object);
        let kind = CallKind::Oneway;

        let call = self.orb.config().instrumented.then(|| monitor.call(func, kind));

        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        // The one-way hidden parameters: the child FTL, then the parent
        // marker, which reuses the FTL wire form (UUID + the parent's event
        // number at the fork).
        let payload = match &call {
            Some(call) => {
                let (uuid, seq) =
                    call.oneway_parent().expect("stub_start always links oneway parents");
                wire::encode_args_with_ftls(
                    &args,
                    &[call.wire_ftl(), FunctionTxLog::new(uuid, seq)],
                )
            }
            None => wire::encode_args(&args),
        };
        cpu.region_end(token);

        // Client-side interception points for the one-way send; the
        // post-invoke point (the CORBA `receive_other` point for one-way
        // requests) runs with empty contexts once the stub has closed.
        let mut contexts = ServiceContexts::new();
        let pending = self.send_request(RequestInfo { func, kind }, &mut contexts);

        let delay = self.orb.inner.fabric.delay(self.orb.process(), target.owner);
        let sent = self.orb.inner.fabric.send(
            target.owner,
            Incoming::Request(
                RequestMsg {
                    conn: ConnKey(self.orb.process()),
                    target: target.object,
                    interface: target.interface,
                    method: midx,
                    oneway: true,
                    payload,
                    contexts,
                    reply: None,
                    net_delay: delay,
                },
                self.orb.gate().enter(),
            ),
        );
        drop(call);
        drop(pending);
        sent.map_err(OrbError::ProcessUnreachable)
    }
}
