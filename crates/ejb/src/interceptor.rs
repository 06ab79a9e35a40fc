//! Container interceptor chains — the `@AroundInvoke` idiom.
//!
//! Unlike the transport-level interceptors of `causeway-orb`, these wrap
//! the business method *inside* the container, after the instance is
//! checked out and the monitoring skeleton probe has fired. They are the
//! natural place for container services (security, transactions, metrics)
//! and they run strictly in registration order, on the dispatch thread.

use causeway_core::ids::{MethodIndex, ObjectId};

/// Static facts about the current business invocation.
#[derive(Debug, Clone, Copy)]
pub struct InvocationInfo {
    /// The bean deployment being invoked.
    pub bean: ObjectId,
    /// The business method index.
    pub method: MethodIndex,
}

/// An `@AroundInvoke`-style container interceptor (split into before/after
/// halves to stay object-safe and simple).
pub trait ContainerInterceptor: Send + Sync {
    /// Runs before the business method, on the dispatch thread.
    fn before(&self, info: &InvocationInfo);
    /// Runs after the business method (whether it succeeded or raised).
    fn after(&self, info: &InvocationInfo, succeeded: bool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_core::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn interceptors_are_plain_hooks() {
        struct Recorder(Mutex<Vec<&'static str>>);
        impl ContainerInterceptor for Recorder {
            fn before(&self, _: &InvocationInfo) {
                self.0.lock().push("before");
            }
            fn after(&self, _: &InvocationInfo, _: bool) {
                self.0.lock().push("after");
            }
        }
        let recorder = Arc::new(Recorder(Mutex::new(vec![])));
        let info = InvocationInfo { bean: ObjectId(1), method: MethodIndex(0) };
        recorder.before(&info);
        recorder.after(&info, true);
        assert_eq!(*recorder.0.lock(), vec!["before", "after"]);
    }
}
