//! [`DecisionRequest`]: what one decision or dispatch asks the engine for.

use std::time::Duration;

use crate::selector::Policy;
use hetsel_ir::Binding;

/// One decision (or dispatch) request.
///
/// A request names the region, carries the runtime binding, and optionally
/// overrides the engine's policy or bounds the decision with a deadline.
/// Build with [`DecisionRequest::new`] plus the `with_*` builders:
///
/// ```
/// use std::time::Duration;
/// use hetsel_core::{DecisionRequest, Policy};
/// use hetsel_ir::Binding;
///
/// let request = DecisionRequest::new("gemm", Binding::new().with("ni", 1024))
///     .with_policy(Policy::AlwaysHost)
///     .with_deadline(Duration::from_micros(50));
/// assert_eq!(request.region(), "gemm");
/// ```
///
/// Fields are private so invariants can be added without breaking callers;
/// every field has an accessor. Serialization (via the workspace `serde`)
/// writes `{"region", "binding", "policy_override", "deadline_ns"}` with
/// the policy as its [`Policy::name`] string and the deadline in integer
/// nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRequest {
    region: String,
    binding: Binding,
    policy_override: Option<Policy>,
    deadline: Option<Duration>,
}

impl DecisionRequest {
    /// A plain request: decide `region` under `binding` with the engine's
    /// own policy and no deadline.
    pub fn new(region: impl Into<String>, binding: Binding) -> DecisionRequest {
        DecisionRequest {
            region: region.into(),
            binding,
            policy_override: None,
            deadline: None,
        }
    }

    /// Builder: decide under `policy` instead of the engine's configured
    /// policy. Overridden decisions are cached in their own policy-tagged
    /// partition, so repeated overrides are as warm as plain decisions
    /// without ever cross-answering one.
    pub fn with_policy(mut self, policy: Policy) -> DecisionRequest {
        self.policy_override = Some(policy);
        self
    }

    /// Builder: strip any per-request policy override, restoring the
    /// engine's configured policy — the mirror of
    /// [`DecisionRequest::without_deadline`], so a front-end can reuse a
    /// template request without rebuilding it.
    pub fn without_policy(mut self) -> DecisionRequest {
        self.policy_override = None;
        self
    }

    /// Builder: bound the decision by `deadline`. A decision that misses
    /// its deadline degrades to the compiler default (offload) with
    /// [`ModelError::DeadlineExceeded`](hetsel_models::ModelError::DeadlineExceeded)
    /// recorded on both sides; a zero
    /// deadline skips model evaluation entirely.
    pub fn with_deadline(mut self, deadline: Duration) -> DecisionRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: strip any deadline from the request. A front-end that
    /// enforces deadlines with real timers (`hetsel-serve`) uses this so
    /// the engine never second-guesses the timer with its own post-hoc
    /// elapsed check.
    pub fn without_deadline(mut self) -> DecisionRequest {
        self.deadline = None;
        self
    }

    /// The region the request names.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// The runtime binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The policy override, if any.
    pub fn policy_override(&self) -> Option<Policy> {
        self.policy_override
    }

    /// The decision deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

impl serde::Serialize for DecisionRequest {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let binding = Value::Object(
            self.binding
                .iter()
                .map(|(name, value)| (name.to_string(), Value::Int(value)))
                .collect(),
        );
        let policy = match self.policy_override {
            Some(p) => Value::Str(p.name().to_string()),
            None => Value::Null,
        };
        let deadline = match self.deadline {
            // Saturate rather than wrap: u64 nanoseconds covers ~584 years.
            Some(d) => Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            None => Value::Null,
        };
        Value::Object(vec![
            ("region".to_string(), Value::Str(self.region.clone())),
            ("binding".to_string(), binding),
            ("policy_override".to_string(), policy),
            ("deadline_ns".to_string(), deadline),
        ])
    }
}

impl serde::Deserialize for DecisionRequest {
    fn from_value(v: &serde::Value) -> Result<DecisionRequest, serde::Error> {
        use serde::Value;
        let region = match v.get("region") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(serde::Error::msg(format!("bad region: {other:?}"))),
        };
        let mut binding = Binding::new();
        match v.get("binding") {
            Some(Value::Object(fields)) => {
                for (name, value) in fields {
                    match value {
                        Value::Int(n) => binding.set(name.as_str(), *n),
                        Value::UInt(n) => binding.set(
                            name.as_str(),
                            i64::try_from(*n).map_err(|_| {
                                serde::Error::msg(format!("binding {name} out of range: {n}"))
                            })?,
                        ),
                        other => {
                            return Err(serde::Error::msg(format!(
                                "binding {name} is not an integer: {other:?}"
                            )))
                        }
                    }
                }
            }
            other => return Err(serde::Error::msg(format!("bad binding: {other:?}"))),
        }
        let policy_override = match v.get("policy_override") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(
                Policy::parse(s)
                    .ok_or_else(|| serde::Error::msg(format!("unknown policy {s:?}")))?,
            ),
            other => return Err(serde::Error::msg(format!("bad policy_override: {other:?}"))),
        };
        let deadline = match v.get("deadline_ns") {
            None | Some(Value::Null) => None,
            Some(ns) => Some(Duration::from_nanos(
                <u64 as serde::Deserialize>::from_value(ns)?,
            )),
        };
        let mut request = DecisionRequest::new(region, binding);
        request.policy_override = policy_override;
        request.deadline = deadline;
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_request_serde_round_trips() {
        let request = DecisionRequest::new("gemm", Binding::new().with("ni", 1024).with("nj", 32))
            .with_policy(Policy::AlwaysHost)
            .with_deadline(Duration::from_nanos(1_234_567));
        let json = serde_json::to_string(&request).unwrap();
        let back: DecisionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        // Optional fields serialize as null and round-trip to None.
        let plain = DecisionRequest::new("atax", Binding::new());
        let json = serde_json::to_string(&plain).unwrap();
        assert!(json.contains("\"policy_override\":null"), "{json}");
        let back: DecisionRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);
        // Unknown policies are rejected, not silently dropped.
        let bad = json.replace("null", "\"turbo_mode\"");
        assert!(serde_json::from_str::<DecisionRequest>(&bad).is_err());
    }
}
