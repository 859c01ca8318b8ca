//! The HTTP side: an in-process gateway configured as `zkml serve` runs it,
//! model publication, and the closed client loop.

use crate::check::Published;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Request, RequestStream, CLIENTS};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zkml_net::{
    http_request, AdmissionConfig, Gateway, GatewayConfig, Json, JsonObj, TenantPolicy,
};
use zkml_service::ServiceConfig;

/// A job that has not reached a terminal state after this long counts as
/// failed; prove jobs here take seconds.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(100);

/// Starts a gateway with `zkml serve`'s defaults (2 workers, queue 16,
/// 4 handler threads, verification batches of 4) and the journal on.
/// Admission never refuses the benchmark's load: the benchmark measures
/// capacity, not policy.
pub fn start_gateway(journal: &Path) -> std::io::Result<Gateway> {
    let unlimited = TenantPolicy {
        rate_per_s: 1e9,
        burst: 1e9,
        max_in_flight: 1 << 20,
    };
    Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig::default(),
        admission: AdmissionConfig {
            default_policy: unlimited,
            lane_capacity: 1 << 16,
            ..AdmissionConfig::default()
        },
        journal: Some(journal.to_path_buf()),
        handler_threads: 4,
        verify_batch: 4,
    })
}

/// `POST /v1/models`: publishes a zoo model's weight commitment.
pub fn publish(addr: &str, model: &'static str) -> Result<Published, String> {
    let body = JsonObj::new().str("model", model).finish();
    let resp = http_request(addr, "POST", "/v1/models", Some(&body))?;
    if resp.status != 200 {
        return Err(format!(
            "publish {model}: HTTP {} {}",
            resp.status, resp.body
        ));
    }
    let v = Json::parse(&resp.body)?;
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("publish {model}: response lacks {name}"))
    };
    Ok(Published {
        model,
        digest_hex: field("digest")?,
        commitment_hex: field("commitment_hex")?,
        k: v.get("k").and_then(Json::as_u64).unwrap_or(0) as u32,
    })
}

/// `GET /v1/stats`.
pub fn stats(addr: &str) -> Result<Json, String> {
    let resp = http_request(addr, "GET", "/v1/stats", None)?;
    Json::parse(&resp.body)
}

/// A numeric field of the stats document's `service` object.
pub fn service_stat(stats: &Json, name: &str) -> f64 {
    stats
        .get("service")
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// One job as a client saw it.
#[derive(Debug)]
pub struct JobRecord {
    /// Position in the request stream.
    pub index: usize,
    /// What was asked.
    pub request: Request,
    /// `POST /v1/jobs` until the first poll that saw the job terminal.
    pub latency_ms: f64,
    /// Polls issued.
    pub polls: u32,
    /// The submission got 429 or 503.
    pub refused: bool,
    /// The terminal status document.
    pub status: Option<Json>,
    /// Transport failure or timeout.
    pub error: Option<String>,
}

/// How a closed loop runs.
pub struct LoopConfig<'a> {
    /// Gateway address.
    pub addr: &'a str,
    /// Poll interval.
    pub poll: Duration,
    /// No job is submitted after this long; jobs in flight then finish.
    /// Every client runs at least one job.
    pub seconds: f64,
    /// Span recorder (off for untraced runs).
    pub tracer: &'a Tracer,
}

/// The outcome of one closed-loop window.
pub struct Window {
    /// Every job submitted.
    pub jobs: Vec<JobRecord>,
    /// From the first submission until the last job ended.
    pub seconds: f64,
}

/// Runs [`CLIENTS`] closed-loop clients over `stream` for `seconds`: each
/// submits a job, polls until it is terminal, then submits the next while
/// time remains.
pub fn closed_loop(
    cfg: &LoopConfig,
    stream: &Mutex<(usize, RequestStream)>,
    body: &(dyn Fn(&Request) -> String + Sync),
) -> Window {
    let start = Instant::now();
    let jobs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let (index, request) = {
                    let mut st = stream.lock().expect("request stream poisoned");
                    st.0 += 1;
                    (st.0 - 1, st.1.next().expect("request streams are endless"))
                };
                let text = body(&request);
                let record = run_job(cfg, index, request, &text);
                jobs.lock().expect("job list poisoned").push(record);
                if start.elapsed().as_secs_f64() >= cfg.seconds {
                    break;
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut jobs = jobs.into_inner().expect("job list poisoned");
    jobs.sort_by_key(|j| j.index);
    Window { jobs, seconds }
}

/// Submits one job and polls it to a terminal state.
pub fn run_job(cfg: &LoopConfig, index: usize, request: Request, body: &str) -> JobRecord {
    let tr = cfg.tracer;
    let job = Some(index as u64);
    let mut record = JobRecord {
        index,
        request,
        latency_ms: 0.0,
        polls: 0,
        refused: false,
        status: None,
        error: None,
    };
    let t0 = Instant::now();
    let root = tr.begin("client.job", ROOT, job);
    let submitted = tr.time("net.submit", root, job, || {
        http_request(cfg.addr, "POST", "/v1/jobs", Some(body))
    });
    let id = match submitted {
        Ok(r) if r.status == 202 => Json::parse(&r.body)
            .ok()
            .and_then(|v| v.get("job_id").and_then(Json::as_u64)),
        Ok(r) => {
            record.refused = matches!(r.status, 429 | 503);
            record.error = Some(format!("submit: HTTP {} {}", r.status, r.body));
            None
        }
        Err(e) => {
            record.error = Some(format!("submit: {e}"));
            None
        }
    };
    if let Some(id) = id {
        let path = format!("/v1/jobs/{id}");
        loop {
            record.polls += 1;
            let polled = tr.time("net.poll", root, job, || {
                http_request(cfg.addr, "GET", &path, None)
            });
            let status = polled.and_then(|r| Json::parse(&r.body));
            match status {
                Ok(v) => {
                    let state = v.get("status").and_then(Json::as_str).unwrap_or("");
                    if matches!(state, "completed" | "failed" | "cancelled") {
                        record.status = Some(v);
                        break;
                    }
                }
                Err(e) => {
                    record.error = Some(format!("poll: {e}"));
                    break;
                }
            }
            if t0.elapsed() > JOB_TIMEOUT {
                record.error = Some(format!("job {id} timed out"));
                break;
            }
            std::thread::sleep(cfg.poll);
        }
    }
    record.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.end(root);
    record
}
