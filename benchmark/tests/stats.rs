//! The order statistics and the parent-vs-change verdicts.

use shift_bnn_benchmark::metrics::Better;
use shift_bnn_benchmark::report::{compare, Verdict};
use shift_bnn_benchmark::stats::{median, percentile, quartiles, relative_spread};

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.0), 1.0, "q = 0 is the minimum");
    assert_eq!(percentile(&values, 0.5), 5.0, "rank ⌈5⌉");
    assert_eq!(percentile(&values, 0.9), 9.0, "rank ⌈9⌉");
    assert_eq!(percentile(&values, 0.91), 10.0, "rank ⌈9.1⌉");
    assert_eq!(percentile(&values, 1.0), 10.0, "q = 1 is the maximum");
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0, "input order does not matter");
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
}

#[test]
#[should_panic(expected = "outside 0.0..=1.0")]
fn percentile_rejects_q_out_of_range() {
    percentile(&[1.0], 1.5);
}

#[test]
#[should_panic(expected = "no values")]
fn percentile_rejects_an_empty_set() {
    percentile(&[], 0.5);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // Reference values from Python's statistics.median and statistics.quantiles(d, n=4).
    let cases: [(&[f64], f64, (f64, f64)); 5] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], 5.5, (2.75, 8.25)),
        (&[1., 2.], 1.5, (0.75, 2.25)),
        (&[5., 1., 3.], 3.0, (1.0, 5.0)),
        (&[2., 4., 4., 4., 5., 5., 7., 9.], 4.5, (4.0, 6.5)),
        (&[10., 20., 30., 40.], 25.0, (12.5, 37.5)),
    ];
    for (values, med, quarts) in cases {
        assert_eq!(median(values), med, "{values:?}");
        assert_eq!(quartiles(values), quarts, "{values:?}");
    }
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    assert_eq!(relative_spread(&[10., 20., 30., 40.]), 1.0);
}

#[test]
fn verdicts_follow_the_pairwise_rule() {
    let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
    // Throughput 10% up in every pair: a gain.
    let faster: Vec<f64> = parent.iter().map(|p| p * 1.1).collect();
    let cmp = compare(Better::Higher, 0.1, &parent, &faster);
    assert_eq!((cmp.verdict, cmp.wins, cmp.pairs), (Verdict::Gain, 10, 10));
    // 3% down: no gain, but within a 10% bound.
    let slower: Vec<f64> = parent.iter().map(|p| p * 0.97).collect();
    assert_eq!(compare(Better::Higher, 0.1, &parent, &slower).verdict, Verdict::WithinBound);
    // 20% down: a regression.
    let much_slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
    assert_eq!(compare(Better::Higher, 0.1, &parent, &much_slower).verdict, Verdict::Regression);
    // For a lower-is-better metric the same numbers read the other way round.
    assert_eq!(compare(Better::Lower, 0.1, &parent, &much_slower).verdict, Verdict::Gain);
}

#[test]
fn a_parent_spread_wider_than_the_bound_is_unresolved() {
    let parent = [50.0, 100.0, 150.0, 80.0, 120.0];
    let change = [60.0, 95.0, 140.0, 85.0, 110.0];
    assert_eq!(compare(Better::Lower, 0.1, &parent, &change).verdict, Verdict::Unresolved);
    // Unless every change run beats every parent run.
    let change = [10.0, 15.0, 5.0, 12.0, 8.0];
    let cmp = compare(Better::Lower, 0.1, &parent, &change);
    assert_eq!(cmp.verdict, Verdict::Gain, "all pairs won by more than the parent IQR");
    let change = [49.0, 48.0, 49.5, 47.0, 48.5];
    let parent = [50.0, 150.0, 51.0, 160.0, 52.0];
    let cmp = compare(Better::Lower, 0.1, &parent, &change);
    assert_eq!(cmp.verdict, Verdict::Better, "every run better, yet within the parent's IQR");
}
