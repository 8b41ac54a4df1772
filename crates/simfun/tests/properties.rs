//! Property-based tests for string and set similarity measures, and for
//! the block's whole-graph kernels against the per-pair definition.

use std::collections::BTreeSet;

use proptest::prelude::*;

use weber_extract::gazetteer::{EntityKind, Gazetteer};
use weber_extract::pipeline::Extractor;
use weber_simfun::block::{PreparedBlock, WordVectorScheme};
use weber_simfun::functions::standard_suite;
use weber_simfun::set_sim::{dice, jaccard, overlap_coefficient};
use weber_simfun::string_sim::{
    jaro, jaro_winkler, levenshtein, ngram_dice, normalized_levenshtein,
};

fn string_set() -> impl Strategy<Value = BTreeSet<String>> {
    proptest::collection::btree_set("[a-c]{1,3}", 0..8)
}

proptest! {
    #[test]
    fn levenshtein_is_a_metric(a in "[a-d]{0,8}", b in "[a-d]{0,8}", c in "[a-d]{0,8}") {
        // Identity of indiscernibles.
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        // Symmetry.
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // Triangle inequality.
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_bounded_by_longer_string(a in ".{0,12}", b in ".{0,12}") {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    #[test]
    fn string_similarities_are_bounded_and_symmetric(a in ".{0,15}", b in ".{0,15}") {
        for (name, f) in [
            ("jaro", jaro as fn(&str, &str) -> f64),
            ("jaro_winkler", jaro_winkler as fn(&str, &str) -> f64),
            ("normalized_levenshtein", normalized_levenshtein as fn(&str, &str) -> f64),
        ] {
            let ab = f(&a, &b);
            let ba = f(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab), "{name}: {ab}");
            prop_assert!((ab - ba).abs() < 1e-12, "{name} asymmetric");
        }
        let nd = ngram_dice(&a, &b, 2);
        prop_assert!((0.0..=1.0).contains(&nd));
        prop_assert!((nd - ngram_dice(&b, &a, 2)).abs() < 1e-12);
    }

    #[test]
    fn identical_strings_are_maximally_similar(a in ".{0,15}") {
        prop_assert_eq!(jaro(&a, &a), 1.0);
        prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        prop_assert_eq!(normalized_levenshtein(&a, &a), 1.0);
        prop_assert_eq!(ngram_dice(&a, &a, 2), 1.0);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in "[a-f]{0,10}", b in "[a-f]{0,10}") {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn set_similarities_bounded_symmetric(a in string_set(), b in string_set()) {
        for (name, v, w) in [
            ("overlap", overlap_coefficient(&a, &b), overlap_coefficient(&b, &a)),
            ("jaccard", jaccard(&a, &b), jaccard(&b, &a)),
            ("dice", dice(&a, &b), dice(&b, &a)),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "{name}: {v}");
            prop_assert!((v - w).abs() < 1e-12, "{name} asymmetric");
        }
    }

    #[test]
    fn set_similarity_ordering(a in string_set(), b in string_set()) {
        // jaccard <= dice <= overlap coefficient, always.
        let (j, d, o) = (jaccard(&a, &b), dice(&a, &b), overlap_coefficient(&a, &b));
        prop_assert!(j <= d + 1e-12);
        prop_assert!(d <= o + 1e-12);
    }

    #[test]
    fn identical_nonempty_sets_score_one(a in string_set()) {
        if !a.is_empty() {
            prop_assert_eq!(overlap_coefficient(&a, &a), 1.0);
            prop_assert_eq!(jaccard(&a, &a), 1.0);
            prop_assert_eq!(dice(&a, &a), 1.0);
        }
    }

    #[test]
    fn disjoint_sets_score_zero(a in string_set()) {
        let b: BTreeSet<String> = a.iter().map(|s| format!("zz{s}")).collect();
        prop_assert_eq!(overlap_coefficient(&a, &b), 0.0);
        prop_assert_eq!(jaccard(&a, &b), 0.0);
    }
}

/// Person names of the random blocks: several share a surname with the
/// query name "cohen", two are near-misses of each other.
const PERSONS: &[&str] = &[
    "Ann Cohen",
    "Bob Cohen",
    "Ann Cohn",
    "Carl Smith",
    "Dana Smyth",
];

/// Words of the random blocks. The last four are stopwords: a page made of
/// only those has an empty word vector.
const WORDS: &[&str] = &[
    "databases",
    "gardening",
    "roses",
    "query",
    "systems",
    "music",
    "piano",
    "the",
    "and",
    "of",
    "with",
];

/// One random page: word indices and person-name indices (a name may
/// repeat, so the most frequent one is well defined, or be absent).
type Page = (Vec<usize>, Vec<usize>);

fn page() -> impl Strategy<Value = Page> {
    (
        collection::vec(0..WORDS.len(), 0..12),
        collection::vec(0..PERSONS.len(), 0..4),
    )
}

/// A prefilter threshold: `None` half of the time.
fn prefilter() -> impl Strategy<Value = Option<f64>> {
    (proptest::bool::ANY, 0.0f64..0.6).prop_map(|(on, t)| on.then_some(t))
}

fn extractor() -> Extractor {
    let mut g = Gazetteer::new();
    g.add_phrases(EntityKind::Person, PERSONS.iter().copied());
    g.add_phrases(EntityKind::Concept, ["databases", "gardening"]);
    Extractor::new(&g)
}

fn text(page: &Page) -> String {
    let mut parts: Vec<&str> = page.0.iter().map(|&w| WORDS[w]).collect();
    for (k, &p) in page.1.iter().enumerate() {
        parts.insert((3 * k).min(parts.len()), PERSONS[p]);
    }
    parts.join(" ")
}

/// Every F1–F10 graph equals `pair_similarity` on every pair, by bits.
fn graphs_match_pairs(block: &PreparedBlock, prefilter: Option<f64>) -> Result<(), TestCaseError> {
    for f in standard_suite() {
        let g = block.similarity_graph_with(f.as_ref(), prefilter);
        prop_assert_eq!(g.len(), block.len());
        for (i, j, w) in g.edges() {
            let want = block.pair_similarity(f.as_ref(), prefilter, i, j);
            prop_assert!(
                w.to_bits() == want.to_bits(),
                "{} ({i},{j}) with prefilter {prefilter:?}: graph {w} vs pair {want}",
                f.name()
            );
        }
    }
    Ok(())
}

fn batch_block(pages: &[Page]) -> PreparedBlock {
    let e = extractor();
    let features = pages.iter().map(|p| e.extract(&text(p), None)).collect();
    PreparedBlock::with_scheme("cohen", features, WordVectorScheme::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_graphs_are_bit_identical_to_pairs(
        pages in collection::vec(page(), 0..40),
        prefilter in prefilter(),
    ) {
        graphs_match_pairs(&batch_block(&pages), prefilter)?;
    }

    /// Pushed one by one, with graphs requested between pushes: cached
    /// graphs grow, and word-vector ones are rebuilt as each push advances
    /// the vector generation.
    #[test]
    fn kernel_graphs_stay_bit_identical_as_a_block_grows(
        pages in collection::vec(page(), 2..30),
        prefilter in prefilter(),
        every in 1usize..6,
    ) {
        let e = extractor();
        let mut block = PreparedBlock::empty("cohen", WordVectorScheme::default());
        let mut generations = BTreeSet::new();
        for (k, p) in pages.iter().enumerate() {
            block.push(e.extract(&text(p), None));
            generations.insert(block.vector_generation());
            if k % every == 0 {
                graphs_match_pairs(&block, prefilter)?;
            }
        }
        graphs_match_pairs(&block, prefilter)?;
        prop_assert!(generations.len() > 1, "pushes never advanced the vector generation");
    }
}

proptest! {
    // Blocks of ~256 documents: slow in debug builds, so few cases.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Blocks on both sides of the size at which a rebuild fans out across
    /// threads (256 documents).
    #[test]
    fn kernel_graphs_are_bit_identical_across_the_parallel_build_gate(
        pages in collection::vec(page(), 250..262),
        prefilter in prefilter(),
    ) {
        graphs_match_pairs(&batch_block(&pages), prefilter)?;
    }
}
