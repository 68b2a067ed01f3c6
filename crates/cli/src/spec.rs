//! Parsing of scheme/distance specifications and flag maps.

use rustc_hash::FxHashMap;

use comsig_core::distance::{BatchDistance, Cosine, Dice, Jaccard, Overlap, SDice, SHel};
use comsig_core::pipeline::DeltaScheme;
use comsig_core::scheme::{PushRwr, Rwr, Scaling, SignatureScheme, TopTalkers, UnexpectedTalkers};

use crate::CliError;

/// A parsed concrete scheme, before boxing behind a trait object —
/// every variant implements both [`SignatureScheme`] and [`DeltaScheme`].
enum ConcreteScheme {
    Tt(TopTalkers),
    Ut(UnexpectedTalkers),
    Rwr(Rwr),
    Push(PushRwr),
}

impl ConcreteScheme {
    fn into_scheme(self) -> Box<dyn SignatureScheme> {
        match self {
            ConcreteScheme::Tt(s) => Box::new(s),
            ConcreteScheme::Ut(s) => Box::new(s),
            ConcreteScheme::Rwr(s) => Box::new(s),
            ConcreteScheme::Push(s) => Box::new(s),
        }
    }

    fn into_delta_scheme(self) -> Box<dyn DeltaScheme> {
        match self {
            ConcreteScheme::Tt(s) => Box::new(s),
            ConcreteScheme::Ut(s) => Box::new(s),
            ConcreteScheme::Rwr(s) => Box::new(s),
            ConcreteScheme::Push(s) => Box::new(s),
        }
    }
}

fn parse_concrete(spec: &str) -> Result<ConcreteScheme, CliError> {
    let (head, rest) = match spec.split_once(':') {
        Some((h, r)) => (h, r),
        None => (spec, ""),
    };
    match head {
        "tt" if rest.is_empty() => Ok(ConcreteScheme::Tt(TopTalkers)),
        "tt" => Err(CliError::Usage(format!(
            "tt takes no options, got `{rest}`"
        ))),
        "ut" => match rest {
            "" | "ratio" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::new())),
            "tfidf" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::with_scaling(
                Scaling::TfIdf,
            ))),
            "log" => Ok(ConcreteScheme::Ut(UnexpectedTalkers::with_scaling(
                Scaling::LogNovelty,
            ))),
            other => Err(CliError::Usage(format!(
                "unknown UT scaling `{other}` (ratio|tfidf|log)"
            ))),
        },
        "rwr" => {
            let opts = parse_kv(rest, &["h", "c", "undirected"])?;
            let c = get_f64(&opts, "c")?.unwrap_or(0.1);
            if !(0.0..=1.0).contains(&c) {
                return Err(CliError::Usage(format!("c must be in [0, 1], got {c}")));
            }
            let mut scheme = match opts.get("h") {
                None => Rwr::full(c),
                Some(h) => match h.parse::<u32>() {
                    Ok(hops) if hops >= 1 => Rwr::truncated(c, hops),
                    _ => {
                        return Err(CliError::Usage(format!(
                            "h must be an integer >= 1, got `{h}`"
                        )))
                    }
                },
            };
            if is_set(&opts, "undirected")? {
                scheme = scheme.undirected();
            }
            Ok(ConcreteScheme::Rwr(scheme))
        }
        "push" => {
            let opts = parse_kv(rest, &["c", "eps", "undirected"])?;
            let c = get_f64(&opts, "c")?.unwrap_or(0.1);
            if !(c > 0.0 && c <= 1.0) {
                return Err(CliError::Usage(format!("c must be in (0, 1], got {c}")));
            }
            let eps = get_f64(&opts, "eps")?.unwrap_or(1e-4);
            if !(eps > 0.0 && eps.is_finite()) {
                return Err(CliError::Usage(format!(
                    "eps must be positive and finite, got {eps}"
                )));
            }
            let mut scheme = PushRwr::new(c, eps);
            if is_set(&opts, "undirected")? {
                scheme = scheme.undirected();
            }
            Ok(ConcreteScheme::Push(scheme))
        }
        other => Err(CliError::Usage(format!(
            "unknown scheme `{other}` (tt|ut|rwr|push)"
        ))),
    }
}

/// Parses a scheme specification:
///
/// * `tt`
/// * `ut`, `ut:ratio`, `ut:tfidf`, `ut:log`
/// * `rwr:h=3,c=0.1[,undirected]` (omit `h` for the steady state)
/// * `push:c=0.1,eps=1e-4[,undirected]`
///
/// Every option is checked: an unknown or repeated key, `c` outside
/// `[0, 1]` (`(0, 1]` for push), a non-positive `eps` and an `h` that is
/// not an integer `≥ 1` are usage errors.
pub fn parse_scheme(spec: &str) -> Result<Box<dyn SignatureScheme>, CliError> {
    parse_concrete(spec).map(ConcreteScheme::into_scheme)
}

/// Parses the same scheme grammar as [`parse_scheme`], but as a
/// [`DeltaScheme`] for the streaming pipeline (`comsig stream`). Every
/// scheme is accepted; RWR^∞ and PushRWR advance by full recompute.
pub fn parse_delta_scheme(spec: &str) -> Result<Box<dyn DeltaScheme>, CliError> {
    parse_concrete(spec).map(ConcreteScheme::into_delta_scheme)
}

/// Parses a distance name: `jac|dice|sdice|shel|cos|ovl`.
pub fn parse_distance(name: &str) -> Result<Box<dyn BatchDistance>, CliError> {
    match name {
        "jac" | "jaccard" => Ok(Box::new(Jaccard)),
        "dice" => Ok(Box::new(Dice)),
        "sdice" => Ok(Box::new(SDice)),
        "shel" => Ok(Box::new(SHel)),
        "cos" | "cosine" => Ok(Box::new(Cosine)),
        "ovl" | "overlap" => Ok(Box::new(Overlap)),
        other => Err(CliError::Usage(format!(
            "unknown distance `{other}` (jac|dice|sdice|shel|cos|ovl)"
        ))),
    }
}

/// Splits `key=value` / bare-`key` options. A key outside `known` or
/// given twice is a usage error, so a typo never falls back to a
/// default silently.
fn parse_kv(rest: &str, known: &[&str]) -> Result<FxHashMap<String, String>, CliError> {
    let mut map = FxHashMap::default();
    if rest.is_empty() {
        return Ok(map);
    }
    for part in rest.split(',') {
        let (k, v) = part.split_once('=').unwrap_or((part, ""));
        let k = k.trim();
        if !known.contains(&k) {
            return Err(CliError::Usage(format!(
                "unknown scheme option `{k}` ({})",
                known.join("|")
            )));
        }
        if map.insert(k.to_owned(), v.trim().to_owned()).is_some() {
            return Err(CliError::Usage(format!("scheme option `{k}` given twice")));
        }
    }
    Ok(map)
}

/// Whether a bare flag option (such as `undirected`) is present; a flag
/// given a value is a usage error rather than a guess at its meaning.
fn is_set(opts: &FxHashMap<String, String>, key: &str) -> Result<bool, CliError> {
    match opts.get(key) {
        None => Ok(false),
        Some(v) if v.is_empty() => Ok(true),
        Some(v) => Err(CliError::Usage(format!(
            "`{key}` takes no value, got `{key}={v}`"
        ))),
    }
}

fn get_f64(opts: &FxHashMap<String, String>, key: &str) -> Result<Option<f64>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("`{key}` must be a number, got `{v}`"))),
    }
}

/// A parsed command line: positional arguments plus `--flag [value]`
/// options (a flag immediately followed by another flag is boolean).
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Flag map: `--k 10` becomes `("k", "10")`; bare flags map to `""`.
    pub flags: FxHashMap<String, String>,
}

impl Parsed {
    /// Splits an argument vector into positionals and flags.
    pub fn from_args(args: &[String]) -> Parsed {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                let value = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .unwrap_or_default();
                if !value.is_empty() {
                    i += 1;
                }
                parsed.flags.insert(name.to_owned(), value);
            } else {
                parsed.positional.push(arg.clone());
            }
            i += 1;
        }
        parsed
    }

    /// A flag value, if present and non-empty.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// Whether a (possibly bare) flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A required flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing --{name}")))
    }

    /// A flag parsed as a number, with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| CliError::Usage(format!("--{name} must be a number, got `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_specs_parse() {
        assert_eq!(parse_scheme("tt").unwrap().name(), "TT");
        assert_eq!(parse_scheme("ut").unwrap().name(), "UT");
        assert_eq!(parse_scheme("ut:tfidf").unwrap().name(), "UT-tfidf");
        assert_eq!(parse_scheme("rwr:h=3,c=0.1").unwrap().name(), "RWR^3_0.1");
        assert_eq!(
            parse_scheme("rwr:h=5,c=0.2,undirected").unwrap().name(),
            "RWR^5_0.2"
        );
        assert_eq!(parse_scheme("rwr:c=0.3").unwrap().name(), "RWR_0.3");
        assert!(parse_scheme("push:eps=1e-5")
            .unwrap()
            .name()
            .starts_with("PushRWR"));
    }

    #[test]
    fn delta_scheme_specs_parse() {
        for spec in [
            "tt",
            "ut:log",
            "rwr:h=3,c=0.1,undirected",
            "rwr:c=0.2",
            "push",
        ] {
            assert!(parse_delta_scheme(spec).is_ok(), "{spec}");
        }
        assert_eq!(parse_delta_scheme("tt").unwrap().name(), "TT");
        assert!(parse_delta_scheme("bogus").is_err());
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("ut:wat").is_err());
        assert!(parse_scheme("rwr:h=abc").is_err());
        assert!(parse_scheme("rwr:h=0").is_err());
        assert!(parse_distance("nope").is_err());
    }

    /// Out-of-range parameters, unknown or repeated option keys and a
    /// non-integer `h` are usage errors — never a constructor panic and
    /// never a silently different scheme.
    #[test]
    fn invalid_scheme_options_are_usage_errors() {
        for spec in [
            "rwr:h=3,c=1.5",
            "rwr:c=-0.1",
            "rwr:c=nan",
            "rwr:c=inf",
            "rwr:h=3,undirectd",
            "rwr:h=2.5",
            "rwr:h=-1",
            "rwr:h=",
            "rwr:h=3,h=4",
            "rwr:h=3,undirected=no",
            "rwr:h=3,eps=1e-4",
            "push:c=2",
            "push:c=0",
            "push:c=nan",
            "push:c=0.1,eps=0",
            "push:eps=-1e-4",
            "push:eps=inf",
            "push:h=3",
            "push:undirectd",
            "tt:bogus",
        ] {
            for result in [
                parse_scheme(spec).map(|s| s.name()),
                parse_delta_scheme(spec).map(|s| s.name()),
            ] {
                assert!(
                    matches!(result, Err(CliError::Usage(_))),
                    "{spec} was accepted as {result:?}"
                );
            }
        }
    }

    /// The accepted spellings keep their exact parse.
    #[test]
    fn valid_scheme_options_parse_as_before() {
        let Ok(ConcreteScheme::Rwr(rwr)) = parse_concrete("rwr:h=3,c=0.1,undirected") else {
            panic!("rwr:h=3,c=0.1,undirected must parse as RWR");
        };
        assert_eq!(rwr.config.hops, Some(3));
        assert_eq!(rwr.config.restart, 0.1);
        assert_eq!(
            rwr.config.direction,
            comsig_core::scheme::WalkDirection::Undirected
        );
        for (spec, name) in [
            ("rwr:h=3,c=0.1,undirected", "RWR^3_0.1"),
            ("rwr: h = 3 , c = 0.1 ", "RWR^3_0.1"),
            ("rwr:c=0", "RWR_0"),
            ("rwr:c=1,h=1", "RWR^1_1"),
            ("rwr", "RWR_0.1"),
            ("push:c=1,eps=1e-3,undirected", "PushRWR_1~1e-3"),
        ] {
            assert_eq!(parse_scheme(spec).unwrap().name(), name, "{spec}");
        }
    }

    #[test]
    fn distance_names_parse() {
        for name in ["jac", "dice", "sdice", "shel", "cos", "ovl"] {
            assert!(parse_distance(name).is_ok(), "{name}");
        }
        assert_eq!(parse_distance("jaccard").unwrap().name(), "Jac");
    }

    #[test]
    fn arg_splitting() {
        let args: Vec<String> = ["gen", "flow", "--locals", "50", "--quiet", "--out", "x.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = Parsed::from_args(&args);
        assert_eq!(p.positional, vec!["gen", "flow"]);
        assert_eq!(p.get("locals"), Some("50"));
        assert_eq!(p.get("out"), Some("x.txt"));
        assert!(p.has("quiet"));
        assert_eq!(p.get("quiet"), None); // bare flag has no value
        assert_eq!(p.num::<usize>("locals", 1).unwrap(), 50);
        assert_eq!(p.num::<usize>("missing", 7).unwrap(), 7);
        assert!(p.require("nope").is_err());
        assert!(p.num::<usize>("out", 1).is_err());
    }
}
