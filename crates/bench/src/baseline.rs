//! Machine-readable perf baselines (`BENCH_<name>.json`): one record
//! schema and one gate check.
//!
//! Every perf bench returns a [`Record`]: its name, the `fast`/`jobs`
//! settings it ran with, a JSON object of named metrics and a list of named
//! [`Gate`]s. [`run`] is the shared main of those benches. It runs the
//! bench, fails the process on any breached gate, writes the record to
//! `CLOUDLB_BENCH_DIR` (default: the current directory), and then, when
//! `CLOUDLB_CHECK` names a baseline record, holds `events_per_sec` to at
//! most 25 % below the baseline's. The checked-in baselines live in
//! `crates/bench/baselines/`.

use crate::Settings;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;
use std::path::{Path, PathBuf};

/// The largest `events_per_sec` regression the `CLOUDLB_CHECK` floor
/// allows, as a fraction of the baseline.
const MAX_REGRESSION: f64 = 0.25;

/// Which side of its bound a gate's value must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dir {
    /// The value must be at least the bound.
    Min,
    /// The value must be at most the bound.
    Max,
}

/// A hard gate: the bench fails unless `value` stays on the `dir` side of
/// `bound`. Bit-identity checks are counts of diverging runs, bounded by 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// What the gate measures.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The bound the value is held to.
    pub bound: f64,
    /// Whether the bound is a minimum or a maximum.
    pub dir: Dir,
}

impl Gate {
    /// Whether the value is on the allowed side of the bound.
    fn holds(&self) -> bool {
        match self.dir {
            Dir::Min => self.value >= self.bound,
            Dir::Max => self.value <= self.bound,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.dir {
            Dir::Min => "≥",
            Dir::Max => "≤",
        };
        let verdict = if self.holds() { "ok" } else { "FAILED" };
        write!(
            f,
            "{verdict}: {} = {}, needs {op} {}",
            self.name, self.value, self.bound
        )
    }
}

/// One bench run, serialized to `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Record name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Whether `CLOUDLB_FAST` shrank the run.
    pub fast: bool,
    /// Worker count the run used (1 for single-threaded benches).
    pub jobs: usize,
    /// Everything the run measured, plus the settings it ran with: a JSON
    /// object from metric name to any JSON value (a count, a rate, or a
    /// list such as the seeds a sweep ran), in the order the bench added
    /// them.
    pub metrics: Value,
    /// The hard gates, each checked by [`run`].
    pub gates: Vec<Gate>,
}

impl Record {
    /// An empty record.
    pub fn new(name: &str, fast: bool, jobs: usize) -> Self {
        Record {
            name: name.to_string(),
            fast,
            jobs,
            metrics: Value::Object(Vec::new()),
            gates: Vec::new(),
        }
    }

    /// Add a metric under a name the record does not hold yet.
    pub fn metric(mut self, name: &str, value: impl Serialize) -> Self {
        let value = serde_json::to_value(&value).expect("a metric serializes");
        assert!(
            self.metrics.get(name).is_none(),
            "metric {name} added twice"
        );
        let Value::Object(fields) = &mut self.metrics else {
            unreachable!("metrics is an object")
        };
        fields.push((name.to_string(), value));
        self
    }

    /// Append a gate.
    pub fn gate(mut self, name: &str, value: f64, dir: Dir, bound: f64) -> Self {
        self.gates.push(Gate {
            name: name.to_string(),
            value,
            bound,
            dir,
        });
        self
    }

    /// The number a metric holds (`None` if absent or not a number).
    fn number(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.as_f64()
    }

    /// Serialize to `<dir>/BENCH_<name>.json` and return the path written.
    fn write(&self, dir: &Path) -> PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let json = serde_json::to_string_pretty(self).expect("serialize bench record");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }

    /// Read a record back from a baseline file.
    fn read(path: &Path) -> Result<Record, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// The one gate check: `Ok` lists every gate, `Err` every breached one.
fn check(gates: &[Gate]) -> Result<String, String> {
    let breached: Vec<String> = gates
        .iter()
        .filter(|g| !g.holds())
        .map(Gate::to_string)
        .collect();
    if breached.is_empty() {
        Ok(gates
            .iter()
            .map(Gate::to_string)
            .collect::<Vec<_>>()
            .join("\n"))
    } else {
        Err(breached.join("\n"))
    }
}

/// The regression floor: `current`'s `events_per_sec` may fall at most
/// `MAX_REGRESSION` below `baseline`'s.
fn floor(current: &Record, baseline: &Record) -> Result<Gate, String> {
    let events_per_sec = |r: &Record| {
        r.number("events_per_sec")
            .ok_or_else(|| format!("record {} has no events_per_sec", r.name))
    };
    let base = events_per_sec(baseline)?;
    Ok(Gate {
        name: format!("events_per_sec vs baseline {base:.0}"),
        value: events_per_sec(current)?,
        bound: base * (1.0 - MAX_REGRESSION),
        dir: Dir::Min,
    })
}

/// The shared main of every perf bench: run `bench` under the
/// environment's [`Settings`], exit 1 on any breached gate, write the
/// record to `CLOUDLB_BENCH_DIR`, then exit 1 if `CLOUDLB_CHECK` names a
/// baseline whose `events_per_sec` the record's falls more than 25 %
/// below.
pub fn run(title: &str, bench: impl FnOnce(&Settings) -> Record) {
    let s = Settings::from_env();
    crate::header(title);
    let record = bench(&s);
    exit_on_breach(check(&record.gates));
    let dir = std::env::var("CLOUDLB_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    println!("wrote {}", record.write(Path::new(&dir)).display());
    if let Ok(path) = std::env::var("CLOUDLB_CHECK") {
        let verdict = Record::read(Path::new(&path))
            .and_then(|base| floor(&record, &base))
            .and_then(|gate| check(&[gate]));
        exit_on_breach(verdict.map_err(|e| format!("{e} ({path})")));
    }
    println!("PERF OK");
}

fn exit_on_breach(verdict: Result<String, String>) {
    match verdict {
        Ok(lines) => println!("{lines}"),
        Err(lines) => {
            eprintln!("GATE FAILED:\n{lines}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baselines() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
    }

    fn rate(events_per_sec: f64) -> Record {
        Record::new("test", true, 2).metric("events_per_sec", events_per_sec)
    }

    #[test]
    fn baselines_parse_and_the_gate_check_rejects_every_breach() {
        // 1. Every checked-in baseline is a `Record` named after its file.
        let mut names = Vec::new();
        for entry in std::fs::read_dir(baselines()).unwrap() {
            let path = entry.unwrap().path();
            let record = Record::read(&path).unwrap();
            let file = path.file_name().unwrap().to_str().unwrap();
            assert_eq!(file, format!("BENCH_{}.json", record.name));
            let Value::Object(metrics) = &record.metrics else {
                panic!("{file}: metrics is not an object")
            };
            for (i, (name, _)) in metrics.iter().enumerate() {
                assert!(
                    metrics[..i].iter().all(|(n, _)| n != name),
                    "{file}: metric {name} twice"
                );
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                serde_json::to_string_pretty(&record).unwrap() + "\n",
                text,
                "{file}"
            );
            names.push(record.name);
        }
        assert!(names.len() >= 7, "{names:?}");

        // 2. The CI-floored baselines carry the metric the floor reads.
        for name in ["fast", "fastforward", "pipeline", "scale"] {
            let record = Record::read(&baselines().join(format!("BENCH_{name}.json"))).unwrap();
            assert!(
                record.number("events_per_sec").is_some_and(|v| v > 0.0),
                "{name}"
            );
        }

        // 3. The one check passes held gates and rejects every breach.
        let gate = |value, dir, bound| Gate {
            name: "g".into(),
            value,
            bound,
            dir,
        };
        let base = rate(2_000_000.0);
        let cases = [
            (gate(1.3, Dir::Min, 1.3), true),
            (gate(1.29, Dir::Min, 1.3), false),
            (gate(0.0, Dir::Max, 0.0), true),
            (gate(1.0, Dir::Max, 0.0), false),
            (floor(&rate(1_600_000.0), &base).unwrap(), true),
            (floor(&rate(9_000_000.0), &base).unwrap(), true),
            (floor(&rate(1_200_000.0), &base).unwrap(), false),
        ];
        for (gate, ok) in cases {
            let verdict = check(&[gate.clone(), gate.clone()]);
            assert_eq!(verdict.is_ok(), ok, "{gate}");
            if !ok {
                assert!(verdict.unwrap_err().contains("FAILED"));
            }
        }
        assert!(check(&[gate(1.0, Dir::Min, 0.9), gate(2.0, Dir::Max, 1.0)]).is_err());
        assert!(
            floor(&Record::new("x", true, 1), &base).is_err(),
            "no events_per_sec"
        );
    }

    #[test]
    fn write_and_check_against_baseline() {
        let dir =
            std::env::temp_dir().join(format!("cloudlb_write_and_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let written = rate(2_000_000.0).gate("g", 1.0, Dir::Min, 0.9);
        let path = written.write(&dir);
        let base = Record::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(base, written);
        assert!(check(&[floor(&rate(1_600_000.0), &base).unwrap()]).is_ok());
        assert!(check(&[floor(&rate(1_200_000.0), &base).unwrap()]).is_err());
    }

    #[test]
    fn missing_baseline_is_an_error() {
        assert!(Record::read(Path::new("/nonexistent/BENCH_x.json")).is_err());
    }
}
