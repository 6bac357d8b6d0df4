//! Cache-correctness properties for the batch driver's structural cache.
//!
//! The cache key is a structural hash that ignores function and value
//! names: α-renamed (isomorphic) functions must hit the cache and
//! receive equal classifications, any single-instruction mutation must
//! miss, and the hit/miss/eviction counters must always add up.

use std::sync::Arc;

use biv::core_analysis::{
    analyze_batch_with_backend, structural_hash, BatchOptions, BatchReport, StructuralCache,
};
use biv::ir::parser::parse_program;
use biv::ir::Function;
use biv::workload::{generate_corpus, CorpusSpec};

/// One batch against a fresh default-capacity cache.
fn cold_batch(funcs: &[Function]) -> BatchReport {
    let opts = BatchOptions::default();
    analyze_batch_with_backend(funcs, &opts, &mut StructuralCache::new(opts.cache_capacity))
}

fn parse_one(source: &str) -> Function {
    let mut program = parse_program(source).expect("test source parses");
    assert_eq!(program.functions.len(), 1);
    program.functions.remove(0)
}

/// α-renames a program source: every identifier that is not a keyword
/// or a label (`L<digits>`) is prefixed, preserving structure exactly.
fn alpha_rename(source: &str) -> String {
    const KEYWORDS: &[&str] = &[
        "func", "loop", "for", "to", "by", "while", "if", "else", "break",
    ];
    let mut out = String::new();
    let mut chars = source.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c.is_ascii_alphabetic() || c == '_' {
            let mut end = start;
            while let Some(&(i, c)) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let ident = &source[start..end];
            let is_label = ident.starts_with('L')
                && ident.len() > 1
                && ident[1..].chars().all(|c| c.is_ascii_digit());
            if KEYWORDS.contains(&ident) || is_label {
                out.push_str(ident);
            } else {
                out.push('q');
                out.push_str(ident);
            }
        } else {
            out.push(c);
            chars.next();
        }
    }
    out
}

const BASE: &str = r#"
func base(n) {
    j = 1
    m = 100
    L1: for i = 1 to n {
        j = j + i
        A[m] = j
        m = i
    }
}
"#;

#[test]
fn alpha_renamed_twin_hits_cache_with_equal_classification() {
    let orig = parse_one(BASE);
    let twin = parse_one(&alpha_rename(BASE));
    assert_eq!(
        structural_hash(&orig),
        structural_hash(&twin),
        "α-renaming must not change the structural hash"
    );

    let report = cold_batch(&[orig, twin]);
    let (a, b) = (&report.functions[0], &report.functions[1]);
    assert!(!a.cached, "first occurrence is analyzed");
    assert!(b.cached, "structural twin is served from the cache");
    assert!(
        Arc::ptr_eq(&a.summary, &b.summary),
        "twins share one cached summary"
    );
    assert_eq!(report.stats.misses, 1);
    assert_eq!(report.stats.hits, 1);
}

#[test]
fn alpha_renamed_workload_corpora_hit_cache() {
    // Property over randomized corpora: append an α-renamed copy of the
    // whole corpus; the second half must be all cache hits, and every
    // twin's canonical summary must equal the original's.
    for seed in [3u64, 11, 0xFEED] {
        let corpus = generate_corpus(&CorpusSpec {
            functions: 6,
            duplicate_every: 0,
            loops: 1,
            trip: 40,
            seed,
        });
        let renamed = parse_program(&alpha_rename(&corpus.source))
            .expect("renamed corpus parses")
            .functions;
        assert_eq!(renamed.len(), corpus.funcs.len());
        for (orig, twin) in corpus.funcs.iter().zip(&renamed) {
            assert_eq!(
                structural_hash(orig),
                structural_hash(twin),
                "seed {seed}: hash changed under α-renaming of {}",
                orig.name()
            );
        }

        let mut funcs = corpus.funcs;
        let originals = funcs.len();
        funcs.extend(renamed);
        let report = cold_batch(&funcs);
        assert_eq!(
            report.stats.misses, originals,
            "each structure analyzed once"
        );
        assert_eq!(report.stats.hits, originals, "every twin is a hit");
        for (orig, twin) in report.functions[..originals]
            .iter()
            .zip(&report.functions[originals..])
        {
            assert!(twin.cached);
            assert_eq!(
                orig.summary.loops, twin.summary.loops,
                "seed {seed}: cached classification differs for {}",
                orig.name
            );
        }
    }
}

#[test]
fn single_instruction_mutations_miss() {
    // Each variant differs from BASE by exactly one instruction-level
    // edit; every one must produce a fresh structural hash.
    let variants: Vec<(&str, String)> = vec![
        ("changed constant", BASE.replace("j = 1", "j = 2")),
        ("changed opcode", BASE.replace("j = j + i", "j = j - i")),
        (
            "changed step source",
            BASE.replace("j = j + i", "j = j + n"),
        ),
        ("changed array store", BASE.replace("A[m] = j", "A[m] = i")),
        (
            "extra instruction",
            BASE.replace("m = i", "m = i\n        k = j"),
        ),
        ("removed instruction", BASE.replace("m = i\n", "")),
        ("changed bound", BASE.replace("1 to n", "2 to n")),
    ];
    let base_hash = structural_hash(&parse_one(BASE));
    let mut hashes = vec![base_hash];
    for (what, source) in &variants {
        let h = structural_hash(&parse_one(source));
        assert_ne!(h, base_hash, "{what}: mutation should change the hash");
        hashes.push(h);
    }
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        variants.len() + 1,
        "all mutations are mutually distinct"
    );

    // And the batch driver agrees: nothing is served from the cache.
    let funcs: Vec<Function> = std::iter::once(BASE.to_string())
        .chain(variants.iter().map(|(_, s)| s.to_string()))
        .map(|s| parse_one(&s))
        .collect();
    let report = cold_batch(&funcs);
    assert_eq!(report.stats.misses, funcs.len());
    assert_eq!(report.stats.hits, 0);
    assert!(report.functions.iter().all(|f| !f.cached));
}

#[test]
fn stats_counters_add_up() {
    for (seed, duplicate_every) in [(1u64, 0usize), (2, 2), (3, 3), (4, 4)] {
        let corpus = generate_corpus(&CorpusSpec {
            functions: 12,
            duplicate_every,
            loops: 1,
            trip: 30,
            seed,
        });
        let report = cold_batch(&corpus.funcs);
        let stats = report.stats;
        assert_eq!(
            stats.hits + stats.misses,
            stats.functions,
            "every function is either a hit or a miss"
        );
        assert_eq!(stats.functions, corpus.funcs.len());
        let distinct: std::collections::HashSet<u64> =
            corpus.funcs.iter().map(structural_hash).collect();
        assert_eq!(
            stats.misses,
            distinct.len(),
            "misses == distinct structures"
        );
        assert_eq!(stats.hits, corpus.duplicates, "hits == known duplicates");
        let cached = report.functions.iter().filter(|f| f.cached).count();
        assert_eq!(cached, stats.hits, "per-function flags match the counters");
    }
}

#[test]
fn cumulative_cache_counters_match_batch_stats() {
    let corpus = generate_corpus(&CorpusSpec {
        functions: 10,
        duplicate_every: 2,
        loops: 1,
        trip: 30,
        seed: 21,
    });
    let opts = BatchOptions::default();
    let mut cache = StructuralCache::new(opts.cache_capacity);

    let first = analyze_batch_with_backend(&corpus.funcs, &opts, &mut cache);
    let second = analyze_batch_with_backend(&corpus.funcs, &opts, &mut cache);

    // A warm cache serves the entire second batch.
    assert_eq!(second.stats.hits, corpus.funcs.len());
    assert_eq!(second.stats.misses, 0);
    // The cache's cumulative counters are the sum over both batches.
    assert_eq!(cache.hits(), (first.stats.hits + second.stats.hits) as u64);
    assert_eq!(
        cache.misses(),
        (first.stats.misses + second.stats.misses) as u64
    );
    assert_eq!(cache.len(), first.stats.misses, "one entry per structure");
    // Warm results are classification-identical to cold results.
    for (a, b) in first.functions.iter().zip(&second.functions) {
        assert_eq!(a.summary.loops, b.summary.loops);
        assert_eq!(a.hash, b.hash);
    }
}

#[test]
fn tiny_cache_evicts_and_counts() {
    let corpus = generate_corpus(&CorpusSpec {
        functions: 8,
        duplicate_every: 0,
        loops: 1,
        trip: 30,
        seed: 77,
    });
    let opts = BatchOptions {
        cache_capacity: 3,
        ..BatchOptions::default()
    };
    let mut cache = StructuralCache::new(opts.cache_capacity);
    let report = analyze_batch_with_backend(&corpus.funcs, &opts, &mut cache);
    assert!(cache.len() <= 3, "capacity is enforced");
    assert_eq!(
        report.stats.evictions,
        report.stats.misses.saturating_sub(3),
        "each insertion beyond capacity evicts exactly one entry"
    );
    assert_eq!(cache.evictions(), report.stats.evictions as u64);
}
