//! Reply-body marshalling: results and application exceptions.
//!
//! Application exceptions travel back through the same instrumented reply
//! path as normal results, so the FTL returns to the stub even when the
//! servant raised — the causal chain never breaks on an exception.

use crate::error::AppError;
use crate::servant::MethodResult;
use causeway_core::error::CoreError;
use causeway_core::ftl::FunctionTxLog;
use causeway_core::value::Value;
use causeway_core::wire;

/// Marshals a method result (or application exception) for the reply.
pub fn encode_reply(result: &MethodResult) -> Vec<u8> {
    encode_reply_with_ftl(result, None)
}

/// [`encode_reply`] followed by the instrumented skeleton's reply FTL,
/// when there is one, written into the same buffer.
pub(crate) fn encode_reply_with_ftl(
    result: &MethodResult,
    ftl: Option<FunctionTxLog>,
) -> Vec<u8> {
    let value = match result {
        Ok(v) => Value::Struct(vec![("ok".into(), v.clone())]),
        Err(e) => Value::Struct(vec![
            ("exception".into(), Value::Str(e.exception.clone())),
            ("message".into(), Value::Str(e.message.clone())),
        ]),
    };
    wire::encode_args_with_ftls(std::slice::from_ref(&value), ftl.as_slice())
}

/// Unmarshals a reply body back into a method result.
///
/// # Errors
///
/// Returns [`CoreError::WireDecode`] on malformed reply buffers.
pub fn decode_reply(bytes: &[u8]) -> Result<MethodResult, CoreError> {
    let mut args = wire::decode_args(bytes)?;
    if args.len() != 1 {
        return Err(CoreError::WireDecode(format!(
            "reply carried {} values, expected 1",
            args.len()
        )));
    }
    let value = args.pop().expect("length checked above");
    if let Some(ok) = value.field("ok") {
        return Ok(Ok(ok.clone()));
    }
    match (value.field("exception"), value.field("message")) {
        (Some(Value::Str(exception)), Some(Value::Str(message))) => {
            Ok(Err(AppError::new(exception.clone(), message.clone())))
        }
        _ => Err(CoreError::WireDecode("reply struct missing ok/exception".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_round_trips() {
        let result: MethodResult = Ok(Value::Str("done".into()));
        let decoded = decode_reply(&encode_reply(&result)).unwrap();
        assert_eq!(decoded, result);
    }

    #[test]
    fn exception_round_trips() {
        let result: MethodResult = Err(AppError::new("Offline", "device off"));
        let decoded = decode_reply(&encode_reply(&result)).unwrap();
        assert_eq!(decoded, result);
    }

    #[test]
    fn a_reply_ftl_marshalled_in_place_matches_an_appended_one() {
        let ftl = FunctionTxLog::new(causeway_core::uuid::Uuid(9), 3);
        for result in [Ok(Value::I64(7)), Err(AppError::new("Offline", "device off"))] {
            assert_eq!(
                encode_reply_with_ftl(&result, Some(ftl)),
                wire::append_ftl(encode_reply(&result), ftl)
            );
        }
    }

    #[test]
    fn void_round_trips() {
        let result: MethodResult = Ok(Value::Void);
        assert_eq!(decode_reply(&encode_reply(&result)).unwrap(), result);
    }

    #[test]
    fn malformed_reply_is_rejected() {
        assert!(decode_reply(&[1, 2, 3]).is_err());
        let empty = wire::encode_args(&[]);
        assert!(decode_reply(&empty).is_err());
        let wrong = wire::encode_args(&[Value::I32(5)]);
        assert!(decode_reply(&wrong).is_err());
    }
}
