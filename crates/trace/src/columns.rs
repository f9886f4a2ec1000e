//! The serialized form of an epoch stream: one array per field.
//!
//! [`ExecutionTrace::epochs`](crate::ExecutionTrace) keeps its rows in
//! memory, but serializes as columns, so the nine counter names are
//! written once per trace instead of once per thread slice:
//!
//! ```text
//! {"start":[..],"duration":[..],"end":[..],"slices":[..],
//!  "thread":[..],"active":[..],"crit":[..],"leading_loads":[..],"stall":[..],
//!  "sq_full":[..],"instructions":[..],"loads":[..],"stores":[..],"llc_misses":[..]}
//! ```
//!
//! `start`, `duration`, `end` and `slices` hold one element per epoch;
//! `slices[i]` is epoch `i`'s number of thread slices. The ten slice
//! columns hold every epoch's slices back to back, in epoch order, so
//! each is `sum(slices)` long. Every element is written as the field's
//! own `write_json` writes it, so floats keep their `{:?}` text.
//!
//! Reading accepts the columns in any order; every one is required, a
//! repeated one is skipped after its first, and unknown keys are skipped.
//! The streamed reader builds the rows from the first per-epoch column,
//! sizes each epoch's `threads` from `slices`, and fills every later
//! column into the rows in place. Only slice columns that come before
//! `slices` are held, as trees, until the counts arrive. A column whose
//! length disagrees with the rows or the counts is an error, and the
//! tree path (`from_value`) accepts and rejects the same texts.

use serde::{DeError, Deserialize, JsonWriter, Reader, Serialize, Value};

use crate::{DvfsCounters, EpochEnd, EpochRecord, ThreadId, ThreadSlice, Time, TimeDelta};

/// How one column reads and writes its cell of a row, on both paths.
struct Column<Row> {
    key: &'static str,
    write: fn(&Row, &mut JsonWriter),
    to_value: fn(&Row) -> Value,
    read: fn(&mut Reader<'_>, &mut Row) -> Result<(), DeError>,
    from_value: fn(&Value, &mut Row) -> Result<(), DeError>,
}

macro_rules! columns {
    ($($key:literal => $($field:ident).+),+ $(,)?) => {
        [$(Column {
            key: $key,
            write: |row, w| row.$($field).+.write_json(w),
            to_value: |row| row.$($field).+.to_value(),
            read: |r, row| {
                row.$($field).+ = Deserialize::from_json(r)?;
                Ok(())
            },
            from_value: |v, row| {
                row.$($field).+ = Deserialize::from_value(v)?;
                Ok(())
            },
        }),+]
    };
}

/// The per-epoch columns, in writing order.
const EPOCH: [Column<EpochRecord>; 3] =
    columns!("start" => start, "duration" => duration, "end" => end);

/// The per-epoch slice counts, written between [`EPOCH`] and [`SLICE`].
const COUNTS: &str = "slices";

/// The per-slice columns, in writing order.
const SLICE: [Column<ThreadSlice>; 10] = columns!(
    "thread" => thread,
    "active" => counters.active,
    "crit" => counters.crit,
    "leading_loads" => counters.leading_loads,
    "stall" => counters.stall,
    "sq_full" => counters.sq_full,
    "instructions" => counters.instructions,
    "loads" => counters.loads,
    "stores" => counters.stores,
    "llc_misses" => counters.llc_misses,
);

/// A row before its columns arrive; every field is overwritten.
const EMPTY_EPOCH: EpochRecord = EpochRecord {
    start: Time::ZERO,
    duration: TimeDelta::ZERO,
    threads: Vec::new(),
    end: EpochEnd::TraceEnd,
};

/// A slice before its columns arrive; every field is overwritten.
const EMPTY_SLICE: ThreadSlice = ThreadSlice {
    thread: ThreadId(0),
    counters: DvfsCounters {
        active: TimeDelta::ZERO,
        crit: TimeDelta::ZERO,
        leading_loads: TimeDelta::ZERO,
        stall: TimeDelta::ZERO,
        sq_full: TimeDelta::ZERO,
        instructions: 0,
        loads: 0,
        stores: 0,
        llc_misses: 0,
    },
};

fn slices(epochs: &[EpochRecord]) -> impl Iterator<Item = &ThreadSlice> {
    epochs.iter().flat_map(|e| &e.threads)
}

fn slices_mut(epochs: &mut [EpochRecord]) -> impl Iterator<Item = &mut ThreadSlice> {
    epochs.iter_mut().flat_map(|e| &mut e.threads)
}

fn counts(epochs: &[EpochRecord]) -> impl Iterator<Item = u64> + '_ {
    epochs.iter().map(|e| e.threads.len() as u64)
}

/// Writes `epochs` as columns (the `with` module's `write_json`).
pub(crate) fn write_json(epochs: &[EpochRecord], w: &mut JsonWriter) {
    fn column<T>(
        w: &mut JsonWriter,
        rows: impl Iterator<Item = T>,
        write: impl Fn(T, &mut JsonWriter),
    ) {
        let mut seq = w.begin_seq();
        for row in rows {
            w.element(&mut seq);
            write(row, w);
        }
        w.end_seq(seq);
    }
    let mut map = w.begin_map();
    for col in &EPOCH {
        w.key(&mut map, col.key);
        column(w, epochs.iter(), col.write);
    }
    w.key(&mut map, COUNTS);
    column(w, counts(epochs), |n, w| w.u64(n));
    for col in &SLICE {
        w.key(&mut map, col.key);
        column(w, slices(epochs), col.write);
    }
    w.end_map(map);
}

/// The columns as a tree (the `with` module's `to_value`).
pub(crate) fn to_value(epochs: &[EpochRecord]) -> Value {
    let mut entries = Vec::with_capacity(EPOCH.len() + 1 + SLICE.len());
    for col in &EPOCH {
        entries.push((
            col.key.to_owned(),
            Value::Seq(epochs.iter().map(col.to_value).collect()),
        ));
    }
    entries.push((
        COUNTS.to_owned(),
        Value::Seq(counts(epochs).map(Value::U64).collect()),
    ));
    for col in &SLICE {
        entries.push((
            col.key.to_owned(),
            Value::Seq(slices(epochs).map(col.to_value).collect()),
        ));
    }
    Value::Map(entries)
}

fn length_error(key: &str) -> DeError {
    DeError::new(format!(
        "epoch column `{key}` disagrees with the slice counts"
    ))
}

/// Fills one streamed column into `rows`, one element per row.
fn fill<'r, Row: 'r>(
    r: &mut Reader<'_>,
    key: &str,
    mut rows: impl Iterator<Item = &'r mut Row>,
    mut read: impl FnMut(&mut Reader<'_>, &mut Row) -> Result<(), DeError>,
) -> Result<(), DeError> {
    let mut seq = r.begin_seq()?;
    while r.next_element(&mut seq)? {
        read(r, rows.next().ok_or_else(|| length_error(key))?)?;
    }
    match rows.next() {
        Some(_) => Err(length_error(key)),
        None => Ok(()),
    }
}

/// Fills one column tree into `rows`, one element per row.
fn fill_value<'r, Row: 'r>(
    v: &Value,
    key: &str,
    mut rows: impl Iterator<Item = &'r mut Row>,
    from_value: fn(&Value, &mut Row) -> Result<(), DeError>,
) -> Result<(), DeError> {
    for item in seq(v, key)? {
        from_value(item, rows.next().ok_or_else(|| length_error(key))?)?;
    }
    match rows.next() {
        Some(_) => Err(length_error(key)),
        None => Ok(()),
    }
}

fn seq<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], DeError> {
    match v {
        Value::Seq(items) => Ok(items),
        other => Err(DeError::new(format!(
            "expected column `{key}`, found {other:?}"
        ))),
    }
}

/// Reads columns written by [`write_json`] (the `with` module's
/// `from_json`).
pub(crate) fn from_json(r: &mut Reader<'_>) -> Result<Vec<EpochRecord>, DeError> {
    // Each slice takes at least one byte in each slice column, so counts
    // summing past this bound cannot match them: it caps what a corrupt
    // count can make the reader allocate.
    let budget = r.input_len() / SLICE.len();
    let mut rows: Option<Vec<EpochRecord>> = None;
    let mut seen_epoch = [false; EPOCH.len()];
    let mut seen_slice = [false; SLICE.len()];
    let mut counted = false;
    // Slice columns read before the counts, by index into `SLICE`.
    let mut early: Vec<(usize, Value)> = Vec::new();
    let mut map = r.begin_map()?;
    while let Some(key) = r.next_key(&mut map)? {
        if let Some(i) = EPOCH.iter().position(|c| c.key == key) {
            if std::mem::replace(&mut seen_epoch[i], true) {
                r.skip_value()?;
            } else {
                per_epoch(r, &mut rows, EPOCH[i].key, EPOCH[i].read)?;
            }
        } else if key == COUNTS {
            if std::mem::replace(&mut counted, true) {
                r.skip_value()?;
                continue;
            }
            let mut total = 0usize;
            per_epoch(r, &mut rows, COUNTS, |r, row| {
                let n = usize::from_json(r)?;
                total = total.saturating_add(n);
                if total > budget {
                    return Err(length_error(COUNTS));
                }
                row.threads = vec![EMPTY_SLICE; n];
                Ok(())
            })?;
            let epochs = rows.as_deref_mut().unwrap_or_default();
            for (i, v) in early.drain(..) {
                fill_value(&v, SLICE[i].key, slices_mut(epochs), SLICE[i].from_value)?;
            }
        } else if let Some(i) = SLICE.iter().position(|c| c.key == key) {
            if std::mem::replace(&mut seen_slice[i], true) {
                r.skip_value()?;
            } else if counted {
                let epochs = rows.as_deref_mut().unwrap_or_default();
                fill(r, SLICE[i].key, slices_mut(epochs), SLICE[i].read)?;
            } else {
                early.push((i, r.value()?));
            }
        } else {
            r.skip_value()?;
        }
    }
    let missing = (EPOCH.iter().map(|c| c.key).zip(seen_epoch))
        .chain([(COUNTS, counted)])
        .chain(SLICE.iter().map(|c| c.key).zip(seen_slice))
        .find(|(_, seen)| !seen);
    match (missing, rows) {
        (None, Some(rows)) => Ok(rows),
        (missing, _) => Err(DeError::missing_field(
            missing.map_or(COUNTS, |(key, _)| key),
        )),
    }
}

/// Reads a per-epoch column: the first one read builds the rows, each
/// later one must match their number.
fn per_epoch(
    r: &mut Reader<'_>,
    rows: &mut Option<Vec<EpochRecord>>,
    key: &str,
    mut read: impl FnMut(&mut Reader<'_>, &mut EpochRecord) -> Result<(), DeError>,
) -> Result<(), DeError> {
    match rows {
        Some(rows) => fill(r, key, rows.iter_mut(), read),
        None => {
            let mut built = Vec::new();
            let mut seq = r.begin_seq()?;
            while r.next_element(&mut seq)? {
                built.push(EMPTY_EPOCH);
                read(r, built.last_mut().expect("just pushed"))?;
            }
            *rows = Some(built);
            Ok(())
        }
    }
}

/// Rebuilds the rows from a column tree (the `with` module's
/// `from_value`).
pub(crate) fn from_value(v: &Value) -> Result<Vec<EpochRecord>, DeError> {
    let Value::Map(_) = v else {
        return Err(DeError::new(format!("expected epoch columns, found {v:?}")));
    };
    let column = |key: &'static str| v.get(key).ok_or_else(|| DeError::missing_field(key));
    let counts: Vec<usize> = Deserialize::from_value(column(COUNTS)?)?;
    let total = counts.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
    // Check every slice column's length before sizing the rows by counts.
    for col in &SLICE {
        if Some(seq(column(col.key)?, col.key)?.len()) != total {
            return Err(length_error(col.key));
        }
    }
    let mut rows: Vec<EpochRecord> = counts
        .iter()
        .map(|&n| EpochRecord {
            threads: vec![EMPTY_SLICE; n],
            ..EMPTY_EPOCH
        })
        .collect();
    for col in &EPOCH {
        fill_value(column(col.key)?, col.key, rows.iter_mut(), col.from_value)?;
    }
    for col in &SLICE {
        fill_value(
            column(col.key)?,
            col.key,
            slices_mut(&mut rows),
            col.from_value,
        )?;
    }
    Ok(rows)
}
