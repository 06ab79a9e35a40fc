//! The per-process ORB: configuration, server-side dispatch (the generic
//! instrumented skeleton), and accessors.

use crate::catalog::InterfaceCatalog;
use crate::client::Client;
use crate::interceptor::{InterceptorSet, RequestInfo, ServiceContexts};
use crate::registry::{ObjectRegistry, SharedRegistries};
use crate::reply::encode_reply_with_ftl;
use crate::servant::ServerCtx;
use crate::transport::{Fabric, ReplyMsg, RequestMsg};
use causeway_core::engine::{Dispatch, Gate, Ticket};
use causeway_core::event::CallKind;
use causeway_core::ids::{NodeId, ProcessId};
use causeway_core::monitor::{Monitor, Skeleton};
use causeway_core::names::SystemVocab;
use causeway_core::record::FunctionKey;
use causeway_core::wire;
use std::sync::Arc;
use std::time::Duration;

/// Static ORB configuration, fixed at system build time.
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// `true` when stubs/skeletons are the instrumented variants (the
    /// paper's back-end compilation flag).
    pub instrumented: bool,
    /// `true` enables collocation optimization: in-process invocations
    /// bypass marshalling and the server engine, and the stub/skeleton
    /// probes degenerate into merged start/end probes on the caller thread.
    pub collocation_optimization: bool,
    /// How long a synchronous caller waits for a reply before giving up.
    pub reply_timeout: Duration,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            instrumented: true,
            collocation_optimization: true,
            reply_timeout: Duration::from_secs(30),
        }
    }
}

#[derive(Debug)]
pub(crate) struct OrbInner {
    pub(crate) process: ProcessId,
    pub(crate) node: NodeId,
    pub(crate) monitor: Monitor,
    pub(crate) registry: ObjectRegistry,
    pub(crate) registries: SharedRegistries,
    pub(crate) catalog: InterfaceCatalog,
    pub(crate) vocab: SystemVocab,
    pub(crate) fabric: Fabric,
    pub(crate) config: OrbConfig,
    pub(crate) interceptors: causeway_core::sync::RwLock<Arc<InterceptorSet>>,
    /// The system's `engine="orb"` gate, shared by its ORBs.
    pub(crate) gate: Gate,
}

/// A per-process ORB handle. Cloning shares state.
#[derive(Debug, Clone)]
pub struct Orb {
    pub(crate) inner: Arc<OrbInner>,
}

impl Orb {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        process: ProcessId,
        node: NodeId,
        monitor: Monitor,
        registry: ObjectRegistry,
        registries: SharedRegistries,
        catalog: InterfaceCatalog,
        vocab: SystemVocab,
        fabric: Fabric,
        config: OrbConfig,
        gate: Gate,
    ) -> Orb {
        Orb {
            inner: Arc::new(OrbInner {
                process,
                node,
                monitor,
                registry,
                registries,
                catalog,
                vocab,
                fabric,
                config,
                interceptors: causeway_core::sync::RwLock::default(),
                gate,
            }),
        }
    }

    /// The process this ORB serves.
    pub fn process(&self) -> ProcessId {
        self.inner.process
    }

    /// The node hosting the process.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The probe runtime of this process.
    pub fn monitor(&self) -> &Monitor {
        &self.inner.monitor
    }

    /// This process's object registry.
    pub fn registry(&self) -> &ObjectRegistry {
        &self.inner.registry
    }

    /// The ORB configuration.
    pub fn config(&self) -> &OrbConfig {
        &self.inner.config
    }

    /// The `engine="orb"` gate of the system this ORB belongs to.
    pub(crate) fn gate(&self) -> &Gate {
        &self.inner.gate
    }

    /// A client bound to this process, for issuing invocations.
    pub fn client(&self) -> Client {
        Client::new(self.clone())
    }

    /// Registers this process's portable interceptors (replacing any
    /// previous set). See [`crate::interceptor`] for the caveats the paper
    /// raises about this instrumentation point.
    pub fn set_interceptors(&self, set: InterceptorSet) {
        *self.inner.interceptors.write() = Arc::new(set);
    }

    /// Server-side dispatch of one request: the generic instrumented
    /// skeleton of Figure 1 (probes 2 and 3 around the up-call), plus reply
    /// transmission. Called by the server engine on whatever thread the
    /// threading policy selected.
    pub(crate) fn dispatch(&self, mut msg: RequestMsg, ticket: Ticket) {
        // Busy time covers the whole dispatch — including the modelled
        // one-way transit sleep, which really does occupy the worker.
        let mut dispatch = ticket.dispatch();
        if !msg.net_delay.is_zero() {
            // One-way transit modelled on the server side because the
            // caller did not wait.
            std::thread::sleep(msg.net_delay);
        }
        let (body, contexts) = self.dispatch_inner(&mut msg, &mut dispatch);
        if let Some(reply) = &msg.reply {
            // The caller may have timed out and dropped the receiver; that
            // is its problem, not ours.
            let _ = reply.send(ReplyMsg { body, contexts });
        }
        // `dispatch` drops here, after the reply send: it ends the busy
        // clock, then releases the ticket. Every record this worker pushed
        // is already visible to a drain.
    }

    /// Answers a request the gate refused with an overload failure
    /// (synchronous callers see it as an immediate error instead of a
    /// timeout), releasing its ticket first.
    pub(crate) fn shed(&self, msg: RequestMsg, ticket: Ticket) {
        drop(ticket);
        if let Some(reply) = &msg.reply {
            let _ = reply.send(ReplyMsg {
                body: Err(format!(
                    "overloaded: {} engine dispatch queue at capacity",
                    self.process()
                )),
                contexts: ServiceContexts::new(),
            });
        }
    }

    fn dispatch_inner(
        &self,
        msg: &mut RequestMsg,
        dispatch: &mut Dispatch,
    ) -> (Result<Vec<u8>, String>, ServiceContexts) {
        let kind = if msg.oneway { CallKind::Oneway } else { CallKind::Sync };
        let monitor = &self.inner.monitor;
        let mut reply_contexts = ServiceContexts::new();

        // Split the hidden FTL parameter(s) back off the payload, which the
        // message hands over rather than copies.
        let payload = std::mem::take(&mut msg.payload);
        let split = if self.inner.config.instrumented {
            if msg.oneway {
                wire::split_ftl(payload)
                    .map_err(|e| format!("bad oneway parent marker: {e}"))
                    .and_then(|(rest, parent)| {
                        wire::split_ftl(rest).map_err(|e| format!("bad FTL: {e}")).map(
                            |(body, child)| {
                                (
                                    body,
                                    Some(child),
                                    Some((parent.global_function_id, parent.event_seq_no)),
                                )
                            },
                        )
                    })
            } else {
                wire::split_ftl(payload)
                    .map_err(|e| format!("bad FTL: {e}"))
                    .map(|(body, ftl)| (body, Some(ftl), None))
            }
        } else {
            Ok((payload, None, None))
        };
        let (body, ftl, oneway_parent) = match split {
            Ok(parts) => parts,
            Err(e) => return (Err(e), reply_contexts),
        };

        // Unknown objects fail before any probe fires — the invocation never
        // reached a skeleton.
        let Some(record) = self.inner.registry.lookup(msg.target) else {
            return (
                Err(format!("unknown object {} in {}", msg.target, self.inner.process)),
                reply_contexts,
            );
        };

        let func = FunctionKey::new(msg.interface, msg.method, msg.target);
        dispatch.op(func, &self.inner.vocab);
        let info = RequestInfo { func, kind };
        {
            let interceptors = self.inner.interceptors.read();
            if !interceptors.is_empty() {
                interceptors.run_receive_request(&info, &msg.contexts);
            }
        }
        let skeleton = ftl.map(|ftl| monitor.skeleton(func, kind, ftl, oneway_parent));

        // Unmarshal inside the skeleton window, charged to this thread.
        let cpu = monitor.cpu_clock();
        let token = cpu.region_begin();
        let args = wire::decode_args(&body);
        cpu.region_end(token);

        let result = match args {
            Ok(args) => {
                let ctx = ServerCtx::new(self.client(), msg.target);
                record.servant.dispatch(&ctx, msg.method, args)
            }
            Err(e) => Err(crate::error::AppError::new("MarshalError", e.to_string())),
        };

        let reply_ftl = skeleton.map(Skeleton::finish);
        {
            let interceptors = self.inner.interceptors.read();
            if !interceptors.is_empty() {
                interceptors.run_send_reply(&info, &mut reply_contexts);
            }
        }

        if msg.oneway {
            return (Ok(Vec::new()), reply_contexts);
        }

        let token = cpu.region_begin();
        let body = encode_reply_with_ftl(&result, reply_ftl);
        cpu.region_end(token);
        (Ok(body), reply_contexts)
    }
}
