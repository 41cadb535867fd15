//! `grbench --check <a.json> <b.json>`: compare two `results.json` sets of
//! one seed, metric by metric, against the registry's gates.
//!
//! Also home of the small JSON reader the comparison (and the unit tests)
//! need; the workspace builds offline, so there is no serde.

use crate::metrics::{registry, Gate, MetricDef};

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && !matches!(self.s[self.i], b',' | b'}' | b']')
                    && !self.s[self.i].is_ascii_whitespace()
                {
                    self.i += 1;
                }
                let word =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                match word {
                    "null" => Ok(Json::Null),
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    w => w
                        .parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token `{w}` at offset {start}")),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.i += 4;
                        }
                        c => out.push(c),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse than the bound, but the within-run spread is wider than the
    /// bound too: the two sets cannot tell a regression from noise.
    Unresolved,
    Info,
}

/// Judge `base → new` for one metric. `spread` is the wider of the two
/// within-run IQR/median shares.
pub fn judge(def: &MetricDef, base: f64, new: f64, spread: f64) -> Verdict {
    match def.gate {
        Gate::Info => Verdict::Info,
        Gate::Exact if base == new => Verdict::Ok,
        Gate::Exact => Verdict::Regressed,
        Gate::Bound(bound) => {
            let worse_by = if def.higher_is_better {
                base - new
            } else {
                new - base
            } / base.abs().max(f64::MIN_POSITIVE);
            if worse_by <= bound {
                Verdict::Ok
            } else if spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Regressed
            }
        }
    }
}

struct Row {
    workload: String,
    trace: u64,
    threads: u64,
    cores: u64,
    failed: u64,
    metrics: Vec<(String, f64, f64)>, // name, value, spread
}

fn rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no `runs` array"))?;
    runs.iter()
        .map(|r| {
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .map(|v| v as u64)
                    .ok_or(format!("{path}: run without `{k}`"))
            };
            let Some(Json::Obj(ms)) = r.get("metrics") else {
                return Err(format!("{path}: run without `metrics`"));
            };
            Ok(Row {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}: run without `workload`"))?
                    .to_string(),
                trace: num("trace")?,
                threads: num("threads")?,
                cores: num("available_parallelism")?,
                failed: num("failed")?,
                metrics: ms
                    .iter()
                    .filter_map(|(k, m)| {
                        Some((
                            k.clone(),
                            m.get("value")?.as_f64()?,
                            m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
                        ))
                    })
                    .collect(),
            })
        })
        .collect()
}

/// Within one result set, the traced and the untraced run of a workload
/// must have computed the same answers: their `verify.fp.*` fingerprints
/// are compared. Returns whether they all agree.
fn same_answers_traced_and_untraced(path: &str, set: &[Row]) -> bool {
    let mut same = true;
    for plain in set.iter().filter(|r| r.trace == 0) {
        let Some(traced) = set
            .iter()
            .find(|r| r.trace == 1 && r.workload == plain.workload)
        else {
            continue;
        };
        for (name, fp, _) in plain
            .metrics
            .iter()
            .filter(|m| m.0.starts_with("verify.fp."))
        {
            let other = traced.metrics.iter().find(|m| &m.0 == name).map(|m| m.1);
            if other != Some(*fp) {
                println!(
                    "regressed  {}: {name} differs between the traced and the untraced run of {path}",
                    plain.workload
                );
                same = false;
            }
        }
    }
    same
}

/// Print one verdict per (metric, workload) row; `Ok(true)` when nothing
/// regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let defs = registry();
    let (a, b) = (rows(a_path)?, rows(b_path)?);
    let mut clean =
        same_answers_traced_and_untraced(a_path, &a) & same_answers_traced_and_untraced(b_path, &b);
    for ra in &a {
        let which = format!("{}/trace{}", ra.workload, ra.trace);
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            println!("unresolved {which}: missing from {b_path}");
            continue;
        };
        // A row measured with more threads than cores times the scheduler,
        // not the program; it is not evidence either way.
        if let Some(r) = [ra, rb].iter().find(|r| r.threads > r.cores) {
            println!(
                "refused    {which}: {} threads on {} cores",
                r.threads, r.cores
            );
            clean = false;
            continue;
        }
        if ra.failed + rb.failed > 0 {
            println!(
                "regressed  {which}: failed operations ({} / {})",
                ra.failed, rb.failed
            );
            clean = false;
        }
        for (name, va, sa) in &ra.metrics {
            let Some(def) = defs.iter().find(|d| &d.name == name) else {
                continue;
            };
            let Some((_, vb, sb)) = rb.metrics.iter().find(|(n, _, _)| n == name) else {
                println!("unresolved {which} {name}: missing from {b_path}");
                continue;
            };
            let verdict = judge(def, *va, *vb, sa.max(*sb));
            let label = match verdict {
                Verdict::Ok => "ok        ",
                Verdict::Regressed => "regressed ",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => continue,
            };
            clean &= verdict != Verdict::Regressed;
            println!("{label} {which} {name}: {va} -> {vb} {}", def.unit);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> MetricDef {
        registry().into_iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn json_reader_round_trips_the_shapes_grbench_writes() {
        let j =
            Json::parse(r#"{"a": [1, 2.5e0, -3], "s": "x\"yA", "o": {}, "t": true, "n": null}"#)
                .unwrap();
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(j.get("s").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(j.get("o"), Some(&Json::Obj(vec![])));
        assert_eq!(j.get("t"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
        assert!(Json::parse("[1 2]").is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let ms = def("bfs_ms"); // lower is better, 25 %
        assert_eq!(judge(&ms, 100.0, 124.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&ms, 100.0, 50.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&ms, 100.0, 130.0, 0.02), Verdict::Regressed);
        assert_eq!(judge(&ms, 100.0, 130.0, 0.30), Verdict::Unresolved);
        let tput = def("mteps"); // higher is better
        assert_eq!(judge(&tput, 100.0, 130.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&tput, 100.0, 70.0, 0.0), Verdict::Regressed);
        let exact = def("sim_ms");
        assert_eq!(judge(&exact, 1.5, 1.5, 0.0), Verdict::Ok);
        assert_eq!(judge(&exact, 1.5, 1.5000001, 0.9), Verdict::Regressed);
        assert_eq!(judge(&def("graph.gen_ms"), 1.0, 9.0, 0.0), Verdict::Info);
    }

    /// A result file with one run holding `bfs_ms` and `sim_ms`.
    fn results(tag: &str, threads: u64, bfs_ms: f64, sim_ms: f64) -> String {
        let path = std::env::temp_dir().join(format!("grbench-{}-{tag}.json", std::process::id()));
        let text = format!(
            r#"{{"schema": "grbench-v1", "runs": [{{"workload": "grid-sparse", "trace": 0,
               "threads": {threads}, "available_parallelism": 2, "failed": 0, "metrics": {{
               "bfs_ms": {{"value": {bfs_ms}, "unit": "ms", "samples": 5, "spread": 0.01}},
               "sim_ms": {{"value": {sim_ms}, "unit": "ms", "samples": 1, "spread": 0}}}}}}]}}"#
        );
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn check_passes_equal_sets_and_fails_breaches_and_oversubscribed_rows() {
        let base = results("base", 2, 100.0, 7.5);
        assert_eq!(run(&base, &results("same", 2, 104.0, 7.5)), Ok(true));
        assert_eq!(run(&base, &results("slow", 2, 140.0, 7.5)), Ok(false));
        assert_eq!(run(&base, &results("clock", 2, 100.0, 7.6)), Ok(false));
        // Four threads on two cores: refused, not compared.
        assert_eq!(run(&base, &results("over", 4, 100.0, 7.5)), Ok(false));
        assert!(run(&base, "/nonexistent/results.json").is_err());
    }
}
