//! The serving-study harness: one table of the studies that back the
//! service, each run from the same numeric settings, rendered, written
//! as a JSON artifact and checked against its gates.
//!
//! `ttlg bench-serve <study>` looks a study up in [`STUDIES`], rejects a
//! setting the study does not take, runs it, writes its
//! `BENCH_<study>.json` artifact and fails when [`Study::check`] names a
//! failed gate. The gates are the study's acceptance conditions; CI runs
//! each study once on the release binary.

use crate::{async_study, cpu_study, gateway_study, serve_study, tail_study, trace_study};

/// Rank-4 permutations available to the studies that take `--perms`.
pub(crate) const MAX_PERMS: usize = 24;

/// A numeric setting a study can take from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// `--perms=N`: distinct rank-4 permutations, 1 to 24.
    Perms,
    /// `--rounds=N`: passes over the workload, at least 1.
    Rounds,
    /// `--seconds=S`: drive time, positive.
    Seconds,
}

impl Setting {
    /// The command-line flag, without its value.
    pub fn flag(self) -> &'static str {
        match self {
            Setting::Perms => "--perms",
            Setting::Rounds => "--rounds",
            Setting::Seconds => "--seconds",
        }
    }
}

/// The settings of one run; a study reads only those it takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Distinct rank-4 permutations.
    pub perms: usize,
    /// Passes over the workload.
    pub rounds: usize,
    /// Drive time, seconds.
    pub seconds: f64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            perms: 16,
            rounds: 4,
            seconds: 1.0,
        }
    }
}

/// A finished study run.
pub trait Study {
    /// Human-readable report.
    fn render(&self) -> String;
    /// The `BENCH_<study>.json` document.
    fn to_json(&self) -> String;
    /// The study's gates; `Err` names every failed one.
    fn check(&self) -> Result<(), String>;
}

/// One row of the study table.
pub struct Entry {
    /// Study name, the `bench-serve` argument and the artifact's suffix.
    pub name: &'static str,
    /// The settings the study takes; any other is a usage error.
    pub takes: &'static [Setting],
    /// Run the study.
    pub run: fn(&Settings) -> Box<dyn Study>,
}

impl Entry {
    /// Parse `--flag=value` arguments into settings, starting from the
    /// defaults. A flag the study does not take, or a value out of
    /// range, is an error naming it.
    pub fn settings(&self, args: &[&str]) -> Result<Settings, String> {
        let mut s = Settings::default();
        for arg in args {
            let (flag, value) = arg.split_once('=').unwrap_or((*arg, ""));
            let Some(setting) = self.takes.iter().find(|t| t.flag() == flag) else {
                let takes: Vec<&str> = self.takes.iter().map(|t| t.flag()).collect();
                let name = self.name;
                return Err(format!(
                    "the {name} study does not take {arg:?} (only {})",
                    takes.join(", ")
                ));
            };
            let bad = || format!("bad {flag} value {value:?}");
            match setting {
                Setting::Perms => {
                    s.perms = value
                        .parse()
                        .ok()
                        .filter(|n| (1..=MAX_PERMS).contains(n))
                        .ok_or_else(bad)?
                }
                Setting::Rounds => {
                    s.rounds = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?
                }
                Setting::Seconds => {
                    s.seconds = value
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v > 0.0)
                        .ok_or_else(bad)?
                }
            }
        }
        Ok(s)
    }
}

/// Every serving study, in the order `bench-serve` lists them.
pub const STUDIES: [Entry; 6] = [
    Entry {
        name: "serve",
        takes: &[Setting::Perms, Setting::Rounds],
        run: |s| Box::new(serve_study::run(s.perms, s.rounds)),
    },
    Entry {
        name: "tail",
        takes: &[Setting::Rounds],
        run: |s| Box::new(tail_study::run(s.rounds)),
    },
    Entry {
        name: "trace",
        takes: &[Setting::Perms, Setting::Rounds],
        run: |s| Box::new(trace_study::run(s.perms, s.rounds)),
    },
    Entry {
        name: "gateway",
        takes: &[Setting::Seconds],
        run: |s| Box::new(gateway_study::run(s.seconds)),
    },
    Entry {
        name: "cpu",
        takes: &[Setting::Seconds],
        run: |s| Box::new(cpu_study::run(s.seconds)),
    },
    Entry {
        name: "async",
        takes: &[Setting::Seconds],
        run: |s| Box::new(async_study::run(s.seconds)),
    },
];

/// The table row of study `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    STUDIES.iter().find(|e| e.name == name)
}

/// The failed gates of one check.
#[derive(Debug, Default)]
pub(crate) struct Gates(Vec<String>);

impl Gates {
    /// Fail `gate` unless `ok`.
    pub(crate) fn require(&mut self, ok: bool, gate: impl Into<String>) {
        if !ok {
            self.0.push(gate.into());
        }
    }

    /// `Ok` when every gate held, otherwise the failed gates, one a line.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            let lines: Vec<String> = self.0.iter().map(|g| format!("failed gate: {g}")).collect();
            Err(lines.join("\n"))
        }
    }
}

/// `gate!(gates, condition[, context...])`: fail the gate named by the
/// condition's source text, plus a formatted context, unless it holds.
macro_rules! gate {
    ($gates:expr, $ok:expr) => {
        $gates.require($ok, stringify!($ok))
    };
    ($gates:expr, $ok:expr, $($context:tt)+) => {
        $gates.require($ok, format!("{} ({})", stringify!($ok), format!($($context)+)))
    };
}
pub(crate) use gate;

/// One field of a [`JsonObject`]: a rendered value, or a list of
/// rendered objects.
#[derive(Debug)]
enum Field {
    Value(String),
    List(Vec<String>),
}

/// A study artifact built field by field: the document holds one field
/// a line and its lists one item a line; nested values render inline.
#[derive(Debug, Default)]
pub(crate) struct JsonObject(Vec<(&'static str, Field)>);

impl JsonObject {
    /// An object whose first field is `"study": name`.
    pub(crate) fn study(name: &str) -> JsonObject {
        JsonObject::default().str("study", name)
    }

    /// Add a number; non-finite values write 0.
    pub(crate) fn num(self, key: &'static str, v: f64) -> Self {
        self.val(key, if v.is_finite() { v } else { 0.0 })
    }

    /// Add a value whose `Display` is JSON: an integer or a boolean.
    pub(crate) fn val(mut self, key: &'static str, v: impl std::fmt::Display) -> Self {
        self.0.push((key, Field::Value(v.to_string())));
        self
    }

    /// Add a string (labels only: nothing is escaped).
    pub(crate) fn str(self, key: &'static str, v: &str) -> Self {
        self.val(key, format!("\"{v}\""))
    }

    /// Add a nested object.
    pub(crate) fn obj(self, key: &'static str, v: JsonObject) -> Self {
        self.val(key, v.inline())
    }

    /// Add a list of objects.
    pub(crate) fn list(
        mut self,
        key: &'static str,
        items: impl IntoIterator<Item = JsonObject>,
    ) -> Self {
        let items = items.into_iter().map(|o| o.inline()).collect();
        self.0.push((key, Field::List(items)));
        self
    }

    fn inline(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, f)| match f {
                Field::Value(v) => format!("\"{k}\": {v}"),
                Field::List(items) => format!("\"{k}\": [{}]", items.join(", ")),
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The artifact document.
    pub(crate) fn document(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, f)| match f {
                Field::Value(v) => format!("  \"{k}\": {v}"),
                Field::List(items) if items.is_empty() => format!("  \"{k}\": []"),
                Field::List(items) => format!("  \"{k}\": [\n    {}\n  ]", items.join(",\n    ")),
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// Exact nearest-rank quantile of ascending `sorted` samples; NaN when
/// there are none.
pub(crate) fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(p50, p95, p99)` of `samples` by nearest rank; sorts them.
pub(crate) fn p50_p95_p99(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    (
        nearest_rank(samples, 0.50),
        nearest_rank(samples, 0.95),
        nearest_rank(samples, 0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_names_each_study_once_and_rejects_settings_it_does_not_take() {
        let names: Vec<&str> = STUDIES.iter().map(|e| e.name).collect();
        assert_eq!(names, ["serve", "tail", "trace", "gateway", "cpu", "async"]);
        let tail = find("tail").unwrap();
        assert_eq!(tail.settings(&["--rounds=2"]).unwrap().rounds, 2);
        assert!(tail.settings(&["--perms=4"]).is_err());
        assert!(tail.settings(&["--rounds=0"]).is_err());
        let serve = find("serve").unwrap();
        assert_eq!(serve.settings(&[]).unwrap(), Settings::default());
        assert!(serve.settings(&["--perms=24"]).is_ok());
        assert!(serve.settings(&["--perms=25"]).is_err());
        assert!(serve.settings(&["--seconds=1"]).is_err());
        let cpu = find("cpu").unwrap();
        assert_eq!(cpu.settings(&["--seconds=0.5"]).unwrap().seconds, 0.5);
        for bad in ["--seconds=0", "--seconds=nan", "--seconds", "--overload=2"] {
            assert!(cpu.settings(&[bad]).is_err(), "{bad}");
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn gates_name_every_failure() {
        let (one, two) = (1, 2);
        let mut g = Gates::default();
        gate!(g, one < two);
        assert!(std::mem::take(&mut g).finish().is_ok());
        gate!(g, one > two);
        gate!(g, one == two, "{one} vs {two}");
        let err = g.finish().unwrap_err();
        assert_eq!(
            err,
            "failed gate: one > two\nfailed gate: one == two (1 vs 2)"
        );
    }

    #[test]
    fn artifacts_hold_a_field_a_line_and_nest_inline() {
        let row = |i: u64| JsonObject::default().val("i", i).num("x", f64::NAN);
        let doc = JsonObject::study("demo")
            .val("ok", true)
            .obj("slo", JsonObject::default().num("goal", 0.99))
            .list("rows", [row(1), row(2).list("inner", [row(3)])])
            .list("none", [])
            .document();
        assert_eq!(
            doc,
            "{\n  \"study\": \"demo\",\n  \"ok\": true,\n  \"slo\": {\"goal\": 0.99},\n  \
             \"rows\": [\n    {\"i\": 1, \"x\": 0},\n    \
             {\"i\": 2, \"x\": 0, \"inner\": [{\"i\": 3, \"x\": 0}]}\n  ],\n  \
             \"none\": []\n}\n"
        );
    }
}
