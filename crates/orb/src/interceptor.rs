//! CORBA-style portable interceptors — the alternative instrumentation
//! point the paper evaluates and rejects (§5):
//!
//! > "CORBA interceptor allows user-defined message manipulation. While it
//! > might be employed to capture causality information, timing latency and
//! > CPU utilization will be less accurate because of the unknown overhead
//! > from the interceptors. Moreover, depending on vendor implementation,
//! > the interceptor and the dispatching of the execution of the function
//! > implementation might be carried by different thread contexts. This
//! > would break both the tracing tunnel and the transparency of the
//! > skeleton dispatching since thread-specific storage is key to our
//! > monitoring."
//!
//! This module implements the standard four interception points with
//! *service contexts* riding the request/reply messages, plus the
//! vendor-dependent [`InterceptorThreadModel`]: under
//! [`InterceptorThreadModel::IoThread`] the server-side interception points
//! run on a separate I/O thread — as some real ORBs did — which is exactly
//! the configuration that breaks TSS-based causality tunneling. The
//! `exp_interceptor_tunnel` experiment reproduces the paper's argument with
//! it.

use causeway_core::event::CallKind;
use causeway_core::record::FunctionKey;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Service contexts: tagged blobs attached to requests and replies (the
/// CORBA `ServiceContextList`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceContexts {
    entries: BTreeMap<u32, Vec<u8>>,
}

impl ServiceContexts {
    /// No contexts.
    pub fn new() -> ServiceContexts {
        ServiceContexts::default()
    }

    /// Sets a context by tag (replacing a previous one).
    pub fn set(&mut self, tag: u32, payload: Vec<u8>) {
        self.entries.insert(tag, payload);
    }

    /// Reads a context.
    pub fn get(&self, tag: u32) -> Option<&[u8]> {
        self.entries.get(&tag).map(Vec::as_slice)
    }

    /// Number of attached contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Static facts about the intercepted invocation.
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo {
    /// The invoked function.
    pub func: FunctionKey,
    /// The invocation kind.
    pub kind: CallKind,
}

/// Client-side interception points (pre-invoke / post-invoke).
///
/// The two points come in pairs: once `send_request` has run for a remote
/// or one-way request, `receive_reply` runs exactly once for it on the
/// same thread, whatever the outcome. It gets the reply's contexts when a
/// reply arrived (including an unknown-object reply and one whose FTL
/// cannot be read) and empty contexts when none did: a send failure, a
/// timeout, a dropped reply, or a one-way request. Neither point runs
/// while the caller thread is unwinding from a panic, because a second
/// panic would abort the process.
pub trait ClientInterceptor: Send + Sync {
    /// Runs on the caller thread just before the request is sent; may
    /// attach service contexts.
    fn send_request(&self, info: &RequestInfo, contexts: &mut ServiceContexts);
    /// Runs on the caller thread when the request is over (see above).
    fn receive_reply(&self, info: &RequestInfo, contexts: &ServiceContexts);
}

/// Server-side interception points (pre-dispatch / post-dispatch).
pub trait ServerInterceptor: Send + Sync {
    /// Runs when the request reaches the server, *on whichever thread the
    /// vendor chose* (see [`InterceptorThreadModel`]).
    fn receive_request(&self, info: &RequestInfo, contexts: &ServiceContexts);
    /// Runs when the reply is about to be sent, on the same vendor-chosen
    /// thread; may attach reply contexts.
    fn send_reply(&self, info: &RequestInfo, contexts: &mut ServiceContexts);
}

/// Which thread runs the server-side interception points — the
/// vendor-implementation detail the paper warns about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterceptorThreadModel {
    /// The same worker thread that dispatches the up-call (the benign
    /// vendor). TSS written by the interceptor is visible to the servant.
    #[default]
    DispatchThread,
    /// A separate I/O thread handles interception; the up-call runs
    /// elsewhere. TSS written by the interceptor lands on the wrong thread
    /// — the tunnel breaks.
    IoThread,
}

/// The interceptors registered with an ORB.
#[derive(Clone, Default)]
pub struct InterceptorSet {
    /// Client-side interceptors, invoked in registration order.
    pub clients: Vec<Arc<dyn ClientInterceptor>>,
    /// Server-side interceptors, invoked in registration order.
    pub servers: Vec<Arc<dyn ServerInterceptor>>,
    /// The vendor's threading choice for the server-side points.
    pub thread_model: InterceptorThreadModel,
}

impl std::fmt::Debug for InterceptorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterceptorSet")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("thread_model", &self.thread_model)
            .finish()
    }
}

impl InterceptorSet {
    /// An empty set with the default (benign) thread model.
    pub fn new() -> InterceptorSet {
        InterceptorSet::default()
    }

    /// `true` when no interceptors are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty() && self.servers.is_empty()
    }

    /// Runs the server-side pre-dispatch points under the vendor's thread
    /// model.
    pub(crate) fn run_receive_request(&self, info: &RequestInfo, contexts: &ServiceContexts) {
        match self.thread_model {
            InterceptorThreadModel::DispatchThread => {
                for interceptor in &self.servers {
                    interceptor.receive_request(info, contexts);
                }
            }
            InterceptorThreadModel::IoThread => {
                // The vendor runs interception on its I/O thread: simulate
                // with a short-lived thread — anything the interceptor put
                // in *its* thread-specific storage is lost to the dispatch
                // thread, exactly the hazard the paper describes.
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for interceptor in &self.servers {
                            interceptor.receive_request(info, contexts);
                        }
                    });
                });
            }
        }
    }

    /// Runs the server-side post-dispatch points under the vendor's thread
    /// model.
    pub(crate) fn run_send_reply(&self, info: &RequestInfo, contexts: &mut ServiceContexts) {
        match self.thread_model {
            InterceptorThreadModel::DispatchThread => {
                for interceptor in &self.servers {
                    interceptor.send_reply(info, contexts);
                }
            }
            InterceptorThreadModel::IoThread => {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for interceptor in &self.servers {
                            interceptor.send_reply(info, contexts);
                        }
                    });
                });
            }
        }
    }
}

/// The `receive_reply` points a request owes once its `send_request`
/// points have run (see [`ClientInterceptor`]). [`PendingReply::receive_reply`]
/// runs them with the reply's contexts; dropping the guard runs them with
/// empty contexts, unless the thread is unwinding.
pub(crate) struct PendingReply {
    set: Option<Arc<InterceptorSet>>,
    info: RequestInfo,
}

impl PendingReply {
    /// Runs `set`'s `send_request` points for one request.
    pub(crate) fn send(
        set: &Arc<InterceptorSet>,
        info: RequestInfo,
        contexts: &mut ServiceContexts,
    ) -> PendingReply {
        for interceptor in &set.clients {
            interceptor.send_request(&info, contexts);
        }
        PendingReply { set: (!set.clients.is_empty()).then(|| Arc::clone(set)), info }
    }

    /// Runs the `receive_reply` points with the reply's contexts.
    pub(crate) fn receive_reply(mut self, contexts: &ServiceContexts) {
        self.run(contexts);
    }

    fn run(&mut self, contexts: &ServiceContexts) {
        if let Some(set) = self.set.take() {
            for interceptor in &set.clients {
                interceptor.receive_reply(&self.info, contexts);
            }
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if self.set.is_some() && !std::thread::panicking() {
            self.run(&ServiceContexts::new());
        }
    }
}

/// The service-context tag used by [`FtlInterceptor`].
pub const FTL_CONTEXT_TAG: u32 = 0xCA05_EF01;

/// A tracing interceptor that attempts the paper's causality capture *via
/// interceptors instead of instrumented stubs/skeletons*: it moves the FTL
/// through service contexts and records the four probe events through the
/// process monitor.
///
/// Under [`InterceptorThreadModel::DispatchThread`] this works — the TSS it
/// installs is visible to the servant, so child calls continue the chain.
/// Under [`InterceptorThreadModel::IoThread`] the tunnel silently breaks:
/// the servant's children mint fresh chains and the reconstructed graph
/// shatters. That contrast is the paper's argument for stub/skeleton
/// instrumentation.
#[derive(Debug, Clone)]
pub struct FtlInterceptor {
    monitor: causeway_core::monitor::Monitor,
}

impl FtlInterceptor {
    /// Creates the tracing interceptor recording through `monitor`.
    pub fn new(monitor: causeway_core::monitor::Monitor) -> FtlInterceptor {
        FtlInterceptor { monitor }
    }
}

impl ClientInterceptor for FtlInterceptor {
    fn send_request(&self, info: &RequestInfo, contexts: &mut ServiceContexts) {
        let out = self.monitor.stub_start(info.func, info.kind);
        contexts.set(FTL_CONTEXT_TAG, out.wire_ftl.to_wire().to_vec());
    }

    fn receive_reply(&self, info: &RequestInfo, contexts: &ServiceContexts) {
        let reply_ftl =
            contexts.get(FTL_CONTEXT_TAG).and_then(causeway_core::ftl::FunctionTxLog::from_wire);
        self.monitor.stub_end(info.func, info.kind, reply_ftl);
    }
}

impl ServerInterceptor for FtlInterceptor {
    fn receive_request(&self, info: &RequestInfo, contexts: &ServiceContexts) {
        if let Some(ftl) =
            contexts.get(FTL_CONTEXT_TAG).and_then(causeway_core::ftl::FunctionTxLog::from_wire)
        {
            // Installs the FTL into *this* thread's TSS — which is only the
            // dispatch thread under the benign vendor model.
            self.monitor.skel_start(info.func, info.kind, ftl, None);
        }
    }

    fn send_reply(&self, info: &RequestInfo, contexts: &mut ServiceContexts) {
        let ftl = self.monitor.skel_end(info.func, info.kind);
        contexts.set(FTL_CONTEXT_TAG, ftl.to_wire().to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::ids::{InterfaceId, MethodIndex, ObjectId};

    #[test]
    fn service_contexts_round_trip() {
        let mut contexts = ServiceContexts::new();
        assert!(contexts.is_empty());
        contexts.set(7, b"hello".to_vec());
        contexts.set(7, b"world".to_vec());
        assert_eq!(contexts.len(), 1);
        assert_eq!(contexts.get(7), Some(&b"world"[..]));
        assert_eq!(contexts.get(8), None);
    }

    #[test]
    fn io_thread_model_runs_on_another_thread() {
        struct ThreadProbe(causeway_core::sync::Mutex<Option<std::thread::ThreadId>>);
        impl ServerInterceptor for ThreadProbe {
            fn receive_request(&self, _: &RequestInfo, _: &ServiceContexts) {
                *self.0.lock() = Some(std::thread::current().id());
            }
            fn send_reply(&self, _: &RequestInfo, _: &mut ServiceContexts) {}
        }
        let probe = Arc::new(ThreadProbe(causeway_core::sync::Mutex::new(None)));
        let info = RequestInfo {
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0)),
            kind: CallKind::Sync,
        };
        let mut set = InterceptorSet::new();
        set.servers.push(probe.clone());

        set.thread_model = InterceptorThreadModel::DispatchThread;
        set.run_receive_request(&info, &ServiceContexts::new());
        assert_eq!(
            probe.0.lock().take(),
            Some(std::thread::current().id()),
            "benign vendor runs on the dispatch thread"
        );

        set.thread_model = InterceptorThreadModel::IoThread;
        set.run_receive_request(&info, &ServiceContexts::new());
        assert_ne!(
            probe.0.lock().take(),
            Some(std::thread::current().id()),
            "io-thread vendor runs elsewhere"
        );
    }
}
