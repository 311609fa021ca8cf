//! Tests of the benchmark itself: seeded streams, admission and the
//! output checks.

use lognic_e2e_bench::check;
use lognic_e2e_bench::gen::{self, Workload};
use lognic_e2e_bench::phase;
use lognic_service::RequestKind;

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let graphs = gen::catalog();
    for w in Workload::ALL {
        let a = gen::generate(w, 7, &graphs);
        let b = gen::generate(w, 7, &graphs);
        let c = gen::generate(w, 8, &graphs);
        assert_eq!(a.lines, b.lines, "{}: same seed, same bytes", w.name());
        assert_eq!(a.config, b.config, "{}", w.name());
        assert_ne!(
            a.lines,
            c.lines,
            "{}: another seed, another stream",
            w.name()
        );
    }
}

#[test]
fn seed_streams_are_fully_admitted_and_pass_the_checks() {
    let graphs = gen::catalog();
    for w in Workload::ALL {
        let stream = gen::generate(w, 3, &graphs);
        let responses = phase::pass(&stream.config, &stream.lines);
        check::check_responses(&stream.lines, &responses)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let all = |kind| check::sample(&stream.lines, kind, usize::MAX, 0);
        check::check_estimates(
            &graphs,
            &stream.lines,
            &responses,
            &all(RequestKind::Estimate),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn replayed_passes_give_the_same_digest() {
    let graphs = gen::catalog();
    let stream = gen::generate(Workload::ServeModel, 5, &graphs);
    let reference = phase::pass(&stream.config, &stream.lines);
    let replay = phase::untraced(&stream.config, &stream.lines, &reference, 0.0);
    assert_eq!(replay.first_pass_digest, check::digest(&reference));
    assert_eq!((replay.failed, replay.mismatched), (0, 0));
}

/// A serve_model transcript and the indices of its estimate answers.
fn estimate_transcript() -> (Vec<gen::Graph>, Vec<String>, Vec<String>, Vec<usize>) {
    let graphs = gen::catalog();
    let stream = gen::generate(Workload::ServeModel, 11, &graphs);
    let responses = phase::pass(&stream.config, &stream.lines);
    let estimates = check::sample(&stream.lines, RequestKind::Estimate, usize::MAX, 0);
    (graphs, stream.lines, responses, estimates)
}

#[test]
fn a_corrupted_number_fails_the_estimator_check() {
    let (graphs, lines, mut responses, estimates) = estimate_transcript();
    let i = estimates[estimates.len() / 2];
    let field = "\"latency_us\":";
    let at = responses[i].find(field).expect("estimates carry latency") + field.len();
    responses[i].insert(at, '9');
    check::check_responses(&lines, &responses).expect("still well-formed");
    let err = check::check_estimates(&graphs, &lines, &responses, &estimates).unwrap_err();
    assert!(err.contains(&format!("response {i}")), "{err}");
}

#[test]
fn a_lost_refused_or_misnumbered_response_fails_the_response_check() {
    let (_, lines, responses, _) = estimate_transcript();
    let mut lost = responses.clone();
    lost.pop();
    assert!(check::check_responses(&lines, &lost).is_err());

    let mut refused = responses.clone();
    refused[4] = refused[4].replace("\"ok\":true", "\"ok\":false");
    assert!(check::check_responses(&lines, &refused).is_err());

    let mut swapped = responses.clone();
    swapped.swap(2, 3);
    assert!(check::check_responses(&lines, &swapped).is_err());

    let mut broken = responses;
    broken[0].push_str(",inf");
    assert!(check::check_responses(&lines, &broken).is_err());
}
