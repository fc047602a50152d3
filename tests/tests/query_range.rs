//! End-to-end coverage for the metrics-history query endpoint: a real
//! gateway over loopback TCP, live traffic, the gateway's background
//! history scraper, and a `/v1/query_range` read whose `increase()`
//! points are non-negative and account for every admitted request. Also
//! covers the `--history-file` round trip at the service layer: a
//! restarted service hydrates the prior run's series, and a save
//! leaves other files beside the history file alone.

use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::Transposer;
use ttlg_runtime::{HistoryConfig, RuntimeConfig, TransposeService};
use ttlg_serve::{client::HttpClient, json::Json, Gateway, GatewayConfig};

const BODY: &str = r#"{"extents":[16,8,4],"perm":[2,0,1]}"#;

#[test]
fn query_range_reports_nonnegative_increase_matching_traffic() {
    let rt = RuntimeConfig {
        history: HistoryConfig {
            scrape_interval_ms: 50,
        },
        ..RuntimeConfig::default()
    };
    let svc = TransposeService::with_config(Transposer::new_k40c(), rt);
    let gw = Gateway::start(Arc::new(svc), GatewayConfig::default());
    let mut server =
        ttlg_serve::server::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("bind loopback");
    let mut c = HttpClient::connect(server.addr()).expect("connect");
    let history = gw.service().history();

    // Two bursts, each followed by a background scrape that started
    // after it (the second scrape from now), so the store holds at
    // least two ingests of traffic for the window to span.
    let mut admitted = 0u64;
    for _ in 0..2 {
        for _ in 0..4 {
            let r = c
                .post_json("/v1/transpose", &[("x-ttlg-tenant", "qr")], BODY)
                .expect("post");
            assert!(r.status == 200 || r.status == 429, "status {}", r.status);
            if r.status == 200 {
                admitted += 1;
            }
        }
        let target = history.scrapes() + 2;
        let deadline = Instant::now() + Duration::from_secs(30);
        while history.scrapes() < target {
            assert!(Instant::now() < deadline, "the background scraper stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(admitted >= 1, "no request was admitted");

    let resp = c
        .get("/v1/query_range?series=sum(increase(ttlg_requests_total))&window=10m&step=1s")
        .expect("query_range");
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let doc = ttlg_serve::json::parse(&resp.body).expect("valid json");

    let Some(Json::Arr(series)) = doc.get("series") else {
        panic!("response has no series array: {}", resp.body_text());
    };
    assert_eq!(series.len(), 1, "sum() must collapse to one series");
    let Some(Json::Arr(points)) = series[0].get("points") else {
        panic!("series has no points array");
    };
    assert!(!points.is_empty(), "query returned no points");

    // increase() per step is never negative, and over the whole window
    // the increments must account for (at least) every admitted
    // request — the counter moved exactly when traffic did.
    let mut total = 0.0f64;
    let mut last_t = i64::MIN;
    for p in points {
        let Json::Arr(tv) = p else {
            panic!("point is not a [t, v] pair")
        };
        let t = tv[0].as_f64().expect("timestamp") as i64;
        let v = tv[1].as_f64().expect("value");
        assert!(t > last_t, "timestamps must be strictly increasing");
        assert!(v >= 0.0, "increase() went negative: {v}");
        last_t = t;
        total += v;
    }
    assert!(
        total >= admitted as f64 - 1e-6,
        "windowed increase {total} does not cover {admitted} admitted requests"
    );

    // A bad expression is a client error, not a 500 or an empty 200.
    let bad = c
        .get("/v1/query_range?series=rate(ttlg_uptime_seconds)")
        .expect("bad query");
    assert_eq!(bad.status, 400, "rate() over a gauge must be rejected");

    // The scraper steps the alert rules once per ingest, and nothing
    // else does: neither the query above nor any poll.
    server.stop();
    let evaluations = gw.service().alerts().evaluations();
    assert_eq!(evaluations, history.scrapes());
    assert!(evaluations >= 2, "{evaluations} evaluations");
}

#[test]
fn history_file_round_trips_across_service_restart() {
    let dir = std::env::temp_dir().join("ttlg-query-range-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("history-{}.tsdb", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // First life: fresh file, a couple of scrapes, persisted on each.
    let first = TransposeService::<f64>::new_k40c();
    let restored = first
        .set_history_file(&path)
        .expect("attach fresh history file");
    assert_eq!(restored, 0, "fresh file must restore nothing");
    first.scrape_history_once();
    first.scrape_history_once();
    let series_before = first.history().series_count();
    assert!(series_before > 0, "scrapes ingested no series");
    drop(first);

    // Second life: the same file hydrates the prior run's series.
    let second = TransposeService::<f64>::new_k40c();
    let restored = second
        .set_history_file(&path)
        .expect("re-attach history file");
    assert_eq!(
        restored, series_before,
        "restart must restore every persisted series"
    );
    assert!(second.history().scrapes() > 0, "scrape count not restored");

    let _ = std::fs::remove_file(&path);
}

/// A save writes `<file name>.tmp` beside the history file and renames
/// it over the file, so a user's `h.tmp` next to `h.tsdb` survives a
/// scrape, and `h.tmp` itself works as the history file.
#[test]
fn history_save_leaves_neighbouring_files_alone() {
    let dir = std::env::temp_dir().join(format!("ttlg-history-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (target, neighbour) = (dir.join("h.tsdb"), dir.join("h.tmp"));
    std::fs::write(&neighbour, "user data").expect("write neighbour");
    let svc = TransposeService::<f64>::new_k40c();
    svc.set_history_file(&target).expect("attach h.tsdb");
    svc.scrape_history_once();
    let kept = std::fs::read_to_string(&neighbour).expect("h.tmp survives the save");
    assert_eq!(kept, "user data");
    assert!(std::fs::metadata(&target).expect("h.tsdb saved").len() > 0);

    // `h.tmp` as the history file round-trips across a restart.
    std::fs::remove_file(&neighbour).expect("rm h.tmp");
    let first = TransposeService::<f64>::new_k40c();
    first.set_history_file(&neighbour).expect("attach h.tmp");
    first.scrape_history_once();
    let series = first.history().series_count();
    assert!(series > 0, "the scrape ingested no series");
    drop(first);
    let second = TransposeService::<f64>::new_k40c();
    let restored = second
        .set_history_file(&neighbour)
        .expect("re-attach h.tmp");
    assert_eq!(restored, series);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["h.tmp", "h.tsdb"], "no temp file is left behind");
    let _ = std::fs::remove_dir_all(&dir);
}
