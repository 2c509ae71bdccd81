//! The settings table: every `SET` name, once.
//!
//! Configuration is split by who reads it. [`Settings::plan`] is the
//! optimizer's config and — whole, with no exceptions — the plan-cache
//! fingerprint; [`Settings::exec`] is read only when a plan runs and is
//! never part of a cache key. Which half a setting lives in is therefore
//! what decides whether changing it can fork the plan cache, and the
//! compiler enforces it: the optimizer cannot see `exec`.
//!
//! [`SETTINGS`] has one row per `SET` name. [`Settings::set`], its
//! unknown-option and bad-value messages and (test-checked) the README's
//! *Settings* table all come from it, so adding a setting is a field in one
//! of the two config structs plus one row here.

use bfq_common::{BfqError, Result};
use bfq_core::{BloomMode, OptimizerConfig};
use bfq_exec::ExecConfig;

/// Everything `SET` can change. An [`crate::EngineConfig`] holds the
/// defaults; each [`crate::Connection`] holds its own resolved copy.
#[derive(Debug, Clone, Default)]
pub struct Settings {
    /// What the optimizer reads (and the executor honours: `dop`,
    /// `index_mode`). Plan-cache fingerprint.
    pub plan: OptimizerConfig,
    /// What only an execution reads: profiling, timeout, row budget.
    pub exec: ExecConfig,
}

/// Which half of [`Settings`] a `SET` name writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettingClass {
    /// Changes [`Settings::plan`]: a different value is a different
    /// plan-cache entry.
    Plan,
    /// Changes [`Settings::exec`]: cached plans keep being reused.
    Exec,
}

/// One `SET` name.
pub struct Setting {
    /// The name `SET` accepts (lower case).
    pub name: &'static str,
    /// Accepted values, as shown in error messages and the README.
    pub values: &'static str,
    /// Whether it can change a plan.
    pub class: SettingClass,
    /// Parse the (trimmed, lower-cased) value and store it; `None` — with
    /// nothing stored — when the value is not one of [`Setting::values`].
    set: fn(&mut Settings, &str) -> Option<()>,
    /// Copy this one setting back from the engine defaults.
    reset: fn(&mut Settings, &Settings),
}

/// Store a parsed value — or, when it did not parse, nothing.
fn store<T>(slot: &mut T, parsed: Option<T>) -> Option<()> {
    *slot = parsed?;
    Some(())
}

/// Every `SET` name, in the order the unknown-option message lists them.
pub const SETTINGS: [Setting; 6] = [
    Setting {
        name: "bloom_mode",
        values: "none|post|cbo|naive",
        class: SettingClass::Plan,
        set: |s, v| {
            let mode = match v {
                "none" | "off" => Some(BloomMode::None),
                "post" => Some(BloomMode::Post),
                "cbo" => Some(BloomMode::Cbo),
                "naive" => Some(BloomMode::Naive),
                _ => None,
            };
            store(&mut s.plan.bloom_mode, mode)
        },
        reset: |s, d| s.plan.bloom_mode = d.plan.bloom_mode,
    },
    Setting {
        name: "index_mode",
        values: "off|zonemap|zonemap+bloom",
        class: SettingClass::Plan,
        set: |s, v| store(&mut s.plan.index_mode, v.parse().ok()),
        reset: |s, d| s.plan.index_mode = d.plan.index_mode,
    },
    Setting {
        name: "dop",
        values: "positive integer",
        class: SettingClass::Plan,
        set: |s, v| store(&mut s.plan.dop, v.parse().ok().filter(|&dop| dop > 0)),
        reset: |s, d| s.plan.dop = d.plan.dop,
    },
    Setting {
        name: "profile",
        values: "on|off",
        class: SettingClass::Exec,
        set: |s, v| {
            let on = match v {
                "on" | "true" | "1" => Some(true),
                "off" | "false" | "0" => Some(false),
                _ => None,
            };
            store(&mut s.exec.profile, on)
        },
        reset: |s, d| s.exec.profile = d.exec.profile,
    },
    Setting {
        name: "statement_timeout",
        values: "milliseconds, 0 = off",
        class: SettingClass::Exec,
        set: |s, v| store(&mut s.exec.statement_timeout_ms, v.parse().ok()),
        reset: |s, d| s.exec.statement_timeout_ms = d.exec.statement_timeout_ms,
    },
    Setting {
        name: "memory_budget_rows",
        values: "buffered rows, 0 = off",
        class: SettingClass::Exec,
        set: |s, v| store(&mut s.exec.memory_budget_rows, v.parse().ok()),
        reset: |s, d| s.exec.memory_budget_rows = d.exec.memory_budget_rows,
    },
];

impl Settings {
    /// `SET name = value`: look `name` up in [`SETTINGS`] and store the
    /// parsed value; the value `default` copies that one setting back from
    /// `defaults`. A rejected name or value changes nothing.
    pub fn set(&mut self, name: &str, value: &str, defaults: &Settings) -> Result<()> {
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_ascii_lowercase();
        let Some(row) = SETTINGS.iter().find(|row| row.name == name) else {
            let names: Vec<&str> = SETTINGS.iter().map(|row| row.name).collect();
            return Err(BfqError::invalid(format!(
                "unknown option `{name}` ({})",
                names.join("|")
            )));
        };
        if value == "default" {
            (row.reset)(self, defaults);
            return Ok(());
        }
        (row.set)(self, &value)
            .ok_or_else(|| BfqError::invalid(format!("bad {name} `{value}` ({})", row.values)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of every body row of the README's *Settings* table: name,
    /// values, default, class, meaning (`\|` in a cell is a literal `|`).
    fn readme_rows() -> Vec<Vec<String>> {
        let readme = include_str!("../README.md");
        let section = readme
            .split("\n## Settings\n")
            .nth(1)
            .expect("README has a `## Settings` section");
        section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // header and separator
            .map(|line| {
                line.replace("\\|", "\u{0}")
                    .trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().trim_matches('`').replace('\u{0}', "|"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn readme_settings_table_is_the_settings_table() {
        let rows = readme_rows();
        let documented: Vec<[String; 3]> = rows
            .iter()
            .map(|r| [r[0].clone(), r[1].clone(), r[3].clone()])
            .collect();
        let actual: Vec<[String; 3]> = SETTINGS
            .iter()
            .map(|row| {
                let class = format!("{:?}", row.class).to_lowercase();
                [row.name.to_string(), row.values.to_string(), class]
            })
            .collect();
        assert_eq!(documented, actual);
        // The documented default of every row is the default: setting it
        // on fresh settings changes nothing.
        let defaults = Settings::default();
        for row in &rows {
            let (name, default) = (&row[0], &row[2]);
            let mut settings = Settings::default();
            settings
                .set(name, default, &defaults)
                .unwrap_or_else(|e| panic!("README default of `{name}`: {e}"));
            assert_eq!(
                format!("{settings:?}"),
                format!("{defaults:?}"),
                "README default of `{name}` is not the default"
            );
        }
    }

    #[test]
    fn a_rejected_value_stores_nothing_and_default_resets_one_setting() {
        let mut defaults = Settings::default();
        defaults.plan.dop = 7;
        defaults.exec.statement_timeout_ms = 9;
        let mut settings = defaults.clone();
        for (name, bad) in [
            ("bloom_mode", "sideways"),
            ("dop", "0"),
            ("dop", "-1"),
            ("profile", "maybe"),
            ("statement_timeout", "soon"),
        ] {
            let err = settings.set(name, bad, &defaults).expect_err(bad);
            let row = SETTINGS.iter().find(|r| r.name == name).expect("row");
            assert!(err.to_string().contains(row.values), "{err}");
            assert_eq!(format!("{settings:?}"), format!("{defaults:?}"));
        }
        settings.set(" DOP ", "2", &defaults).expect("set dop");
        settings
            .set("statement_timeout", "50", &defaults)
            .expect("set");
        settings
            .set("dop", "Default", &defaults)
            .expect("reset dop");
        assert_eq!(settings.plan.dop, 7, "reset reads the engine default");
        assert_eq!(settings.exec.statement_timeout_ms, 50, "and only that one");
    }
}
