//! The executor endpoint: `POST /v1/exec` runs one wire-encoded circuit
//! request (`qsc_sim::remote`) on a server-hosted backend.
//!
//! The host keeps a cache of built backends keyed by the *normalized*
//! canonical JSON of their config, so a sweep hammering one executor with
//! thousands of calls builds each backend kind exactly once (backends are
//! stateless between calls apart from their buffer pools — which is
//! exactly what makes reuse safe *and* fast). Noise parameters are
//! client-chosen floats, so the set of configs is unbounded: the cache
//! holds at most [`MAX_CACHED_BACKENDS`] entries and evicts one to admit a
//! new config. Requests without a `backend` field run on the host's
//! default backend (`--backend`).
//!
//! A `phase_distribution` request's register width `t` is checked by
//! [`qsc_sim::budget::check_phase_register`] before the backend allocates
//! `2^t` (or `4^t`) entries; an over-wide `t` answers an in-band
//! `BudgetExceeded` simulation error.
//!
//! Execution is confined with `catch_unwind`: a panicking request answers
//! `500` and the service keeps serving. The host counts in-flight and
//! completed executions for `GET /v1/healthz`.

use qsc_core::config::BackendConfig;
use qsc_json::{FromJson, ToJson, Value};
use qsc_sim::backend::Backend;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most backends the host keeps built at once. At the cap, admitting a new
/// config evicts an arbitrary cached one; an evicted config is rebuilt on
/// its next request (construction is allocation-free, and only the buffer
/// pool's warm buffers are lost).
pub const MAX_CACHED_BACKENDS: usize = 32;

/// Why an exec request was not served.
#[derive(Debug)]
pub enum ExecError {
    /// Malformed request (syntax, unknown fields, bad backend config) —
    /// answered `400`.
    BadRequest(String),
    /// The execution panicked — answered `500`.
    Internal(String),
}

/// The hosted-backend registry behind `POST /v1/exec`.
pub struct ExecHost {
    default_config: BackendConfig,
    backends: Mutex<HashMap<String, Arc<dyn Backend>>>,
    inflight: AtomicU64,
    executed: AtomicU64,
}

impl ExecHost {
    /// A host whose requests default to `default_config` when they carry
    /// no `backend` field.
    pub fn new(default_config: BackendConfig) -> ExecHost {
        ExecHost {
            default_config,
            backends: Mutex::new(HashMap::new()),
            inflight: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// Config-file kind name of the default hosted backend (healthz).
    pub fn default_kind(&self) -> &'static str {
        self.default_config.kind_name()
    }

    /// Exec requests currently running.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Exec requests completed (successfully or with an in-band
    /// simulation error) since start.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::SeqCst)
    }

    /// Resolves a request's backend config to a built backend, through
    /// the normalized-key cache.
    fn resolve(&self, config_v: Option<&Value>) -> Result<Arc<dyn Backend>, ExecError> {
        let config = match config_v {
            None => self.default_config.clone(),
            Some(v) => BackendConfig::from_json(v)
                .map_err(|e| ExecError::BadRequest(format!("invalid backend config: {e}")))?,
        };
        if matches!(config, BackendConfig::Remote { .. }) {
            return Err(ExecError::BadRequest(
                "an executor cannot host a remote backend (no chaining)".into(),
            ));
        }
        let key = config
            .to_json()
            .to_json_canonical()
            .map_err(|e| ExecError::BadRequest(format!("backend config: {e}")))?;
        let mut backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(backend) = backends.get(&key) {
            return Ok(backend.clone());
        }
        let backend = config
            .build()
            .map_err(|e| ExecError::BadRequest(format!("invalid backend config: {e}")))?;
        if backends.len() >= MAX_CACHED_BACKENDS {
            if let Some(evict) = backends.keys().next().cloned() {
                backends.remove(&evict);
            }
        }
        backends.insert(key, backend.clone());
        Ok(backend)
    }

    /// Serves one exec request body, returning the response body.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadRequest`] for malformed documents (the transport
    /// layer answers `400` — the client maps that to a transport error),
    /// [`ExecError::Internal`] when execution panics.
    pub fn execute(&self, body: &str) -> Result<String, ExecError> {
        let request = Value::parse(body)
            .map_err(|e| ExecError::BadRequest(format!("invalid request: {e}")))?;
        let backend = self.resolve(request.get("backend"))?;
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            qsc_sim::remote::execute(&request, backend.as_ref())
        }));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(Ok(response)) => {
                self.executed.fetch_add(1, Ordering::SeqCst);
                response
                    .to_json_canonical()
                    .map_err(|e| ExecError::Internal(format!("response encoding failed: {e}")))
            }
            Ok(Err(e)) => Err(ExecError::BadRequest(format!("invalid request: {e}"))),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "execution panicked".into());
                Err(ExecError::Internal(format!(
                    "execution panicked: {message}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_sim::remote::{circuit_to_json, rng_to_json};
    use qsc_sim::{Circuit, Op};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn with_backend(mut fields: Vec<(String, Value)>, backend: Option<&str>) -> String {
        if let Some(b) = backend {
            fields.push(("backend".to_string(), Value::parse(b).unwrap()));
        }
        Value::Obj(fields).to_json_canonical().unwrap()
    }

    fn phase_request(t: usize, backend: Option<&str>) -> String {
        let rng = StdRng::seed_from_u64(1);
        let fields = vec![
            ("op".to_string(), Value::Str("phase_distribution".into())),
            ("phi".to_string(), Value::Num(0.25)),
            ("t".to_string(), Value::Num(t as f64)),
            ("rng".to_string(), rng_to_json(&rng)),
        ];
        with_backend(fields, backend)
    }

    fn bell_request(backend: Option<&str>) -> String {
        let rng = StdRng::seed_from_u64(1);
        let mut circuit = Circuit::new(2);
        circuit.push(Op::H(0)).unwrap();
        circuit
            .push(Op::Cnot {
                control: 0,
                target: 1,
            })
            .unwrap();
        let fields = vec![
            ("op".to_string(), Value::Str("run".into())),
            ("circuit".to_string(), circuit_to_json(&circuit)),
            (
                "basis".to_string(),
                Value::Obj(vec![
                    ("num_qubits".into(), Value::Num(2.0)),
                    ("index".into(), Value::Num(0.0)),
                ]),
            ),
            ("rng".to_string(), rng_to_json(&rng)),
        ];
        with_backend(fields, backend)
    }

    /// The wire `kind` of an in-band simulation error, if any.
    fn sim_error_kind(response: &str) -> Option<String> {
        let doc = Value::parse(response).unwrap();
        let kind = doc.get("sim_error")?.get("kind")?.as_str()?;
        Some(kind.to_string())
    }

    #[test]
    fn serves_a_run_request_and_counts_it() {
        let host = ExecHost::new(BackendConfig::default());
        assert_eq!(host.executed(), 0);
        let response = host.execute(&bell_request(None)).unwrap();
        let doc = Value::parse(&response).unwrap();
        assert!(doc.get("amplitudes").is_some(), "{response}");
        assert_eq!(host.executed(), 1);
        assert_eq!(host.inflight(), 0);
    }

    #[test]
    fn caches_backends_by_normalized_config() {
        let host = ExecHost::new(BackendConfig::default());
        host.execute(&bell_request(Some("\"statevector\"")))
            .unwrap();
        host.execute(&bell_request(Some("\"statevector\"")))
            .unwrap();
        host.execute(&bell_request(Some(
            r#"{"noisy": {"depolarizing": 0.1, "readout_flip": 0.0}}"#,
        )))
        .unwrap();
        let backends = host.backends.lock().unwrap();
        assert_eq!(backends.len(), 2, "one build per distinct config");
    }

    #[test]
    fn backend_cache_stays_within_its_cap() {
        let host = ExecHost::new(BackendConfig::default());
        let reference = host.execute(&bell_request(None)).unwrap();
        let reference_amps = Value::parse(&reference).unwrap();
        for i in 0..40 {
            // Zero depolarizing: every distinct config must answer the
            // ideal amplitudes, evicted or not.
            let config = format!(
                r#"{{"noisy": {{"depolarizing": 0, "readout_flip": {}}}}}"#,
                i as f64 / 1000.0
            );
            let response = host.execute(&bell_request(Some(&config))).unwrap();
            assert_eq!(
                Value::parse(&response).unwrap().get("amplitudes"),
                reference_amps.get("amplitudes"),
                "config {i}"
            );
            assert!(host.backends.lock().unwrap().len() <= MAX_CACHED_BACKENDS);
        }
        assert_eq!(host.backends.lock().unwrap().len(), MAX_CACHED_BACKENDS);
        assert_eq!(host.executed(), 41);
    }

    #[test]
    fn over_wide_phase_registers_answer_budget_exceeded_in_band() {
        let host = ExecHost::new(BackendConfig::default());
        let density = r#"{"density": {"depolarizing": 0.1}}"#;
        for request in [phase_request(40, None), phase_request(14, Some(density))] {
            let response = host.execute(&request).unwrap();
            assert_eq!(
                sim_error_kind(&response).as_deref(),
                Some("budget_exceeded"),
                "{response}"
            );
        }
        // The host keeps serving normal requests on both backends.
        for request in [phase_request(4, None), phase_request(3, Some(density))] {
            let response = host.execute(&request).unwrap();
            assert_eq!(sim_error_kind(&response), None, "{response}");
            assert!(Value::parse(&response).unwrap().get("probs").is_some());
        }
        assert!(host.execute(&bell_request(None)).is_ok());
    }

    #[test]
    fn rejects_malformed_bodies_and_chained_remotes() {
        let host = ExecHost::new(BackendConfig::default());
        assert!(matches!(
            host.execute("{not json"),
            Err(ExecError::BadRequest(_))
        ));
        assert!(matches!(
            host.execute(&bell_request(Some("\"statevctor\""))),
            Err(ExecError::BadRequest(_))
        ));
        let chained = bell_request(Some(
            r#"{"remote": {"addr": "x:1", "inner": "statevector"}}"#,
        ));
        let err = host.execute(&chained).unwrap_err();
        let ExecError::BadRequest(message) = err else {
            panic!("expected BadRequest");
        };
        assert!(message.contains("chaining"), "{message}");
    }
}
