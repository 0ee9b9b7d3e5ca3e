//! Chrome trace-event export of a traced pass: one track per pool
//! worker or fabric tenant, spans named after the layer metrics. The
//! file opens offline in Perfetto (ui.perfetto.dev → "Open trace file")
//! or `chrome://tracing`.

use crate::layers::Span;
use serde_json::{json, Value};

/// Track of the benchmark's main thread.
pub const MAIN_TRACK: u32 = 0;

/// Track of tenant `t` of a fleet.
pub fn tenant_track(t: usize) -> u32 {
    1 + t as u32
}

fn track_name(track: u32, workers: &[u32]) -> String {
    match track {
        MAIN_TRACK => "main".to_string(),
        t if t < 1000 => format!("tenant {}", t - 1),
        t => format!(
            "worker {}",
            workers.iter().position(|&w| w == t).unwrap_or_default()
        ),
    }
}

/// The trace-event document for `spans` (timestamps in host
/// microseconds), with `provenance` under `otherData`.
pub fn chrome_trace(workload: &str, spans: &[Span], provenance: &Value) -> Value {
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let workers: Vec<u32> = tracks.iter().copied().filter(|&t| t >= 1000).collect();
    let mut events = vec![json!({
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": { "name": format!("amrbench {workload} (host time)") }
    })];
    for &t in &tracks {
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": t,
            "args": { "name": track_name(t, &workers) }
        }));
    }
    for s in spans {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let mut event = json!({
            "name": s.name,
            "cat": cat,
            "ph": "X",
            "pid": 1,
            "tid": s.track,
            "ts": s.start_ns as f64 / 1e3,
            "dur": s.dur_ns as f64 / 1e3
        });
        if let (Some(label), Value::Object(fields)) = (&s.label, &mut event) {
            fields.push(("args".to_string(), json!({ "label": label })));
        }
        events.push(event);
    }
    json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
        "otherData": provenance.clone()
    })
}
