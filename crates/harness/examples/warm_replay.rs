//! Replays every envelope in a persistent cache directory through
//! `SimCache::get_or_compute`, timing each disk hit. The compute closure
//! panics, so a miss means the envelope failed to load.
//!
//! ```text
//! cargo run --release -p harness --example warm_replay -- <cache-root>
//! ```

use std::convert::Infallible;
use std::time::Instant;

use harness::{SimCache, SimKey};

fn main() {
    let root = std::env::args().nth(1).expect("usage: warm_replay <cache-root>");
    let cache = SimCache::persistent(&root);
    let dir = std::path::Path::new(&root).join(format!("v{}", harness::cache::SCHEMA_VERSION));
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let stem = path.file_stem().expect("stem").to_string_lossy();
        let key = SimKey(u128::from_str_radix(&stem, 16).expect("hex key"));
        let t0 = Instant::now();
        let summary = cache
            .get_or_compute::<_, Infallible>(key, || panic!("envelope {stem} missed"))
            .expect("load succeeds");
        println!(
            "{stem}: {} epochs in {:.3}s",
            summary.trace.epochs.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!("stats: {:?}", cache.stats());
}
