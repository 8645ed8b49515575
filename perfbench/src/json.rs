//! A minimal ordered JSON object builder for the result and record
//! lines; strings and numbers are rendered by the metadata exporter.

use lsdf_metadata::export::{json_string, value_to_json};
use lsdf_metadata::Value;

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// A number as JSON with every digit Rust prints; JSON has no NaN or
/// infinity, so those become `null`.
fn num(v: f64) -> String {
    value_to_json(&Value::Float(v))
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    pub fn f(self, key: &str, v: f64) -> Obj {
        self.raw(key, num(v))
    }

    pub fn u(self, key: &str, v: u64) -> Obj {
        self.raw(key, v.to_string())
    }

    pub fn s(self, key: &str, v: &str) -> Obj {
        self.raw(key, json_string(v))
    }

    pub fn b(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    pub fn o(self, key: &str, v: Obj) -> Obj {
        self.raw(key, v.render())
    }

    pub fn opt_f(self, key: &str, v: Option<f64>) -> Obj {
        self.raw(key, v.map_or_else(|| "null".to_string(), num))
    }

    /// A JSON array of strings.
    pub fn strings(self, key: &str, v: &[String]) -> Obj {
        let items: Vec<String> = v.iter().map(|s| json_string(s)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let o = Obj::new()
            .f("x", 1.25)
            .f("whole", 3.0)
            .u("n", 7)
            .s("s", "a\"b\n")
            .b("ok", true)
            .opt_f("none", None)
            .strings("list", &["p".to_string(), "q\\".to_string()])
            .o("in", Obj::new().f("nan", f64::NAN));
        assert_eq!(
            o.render(),
            r#"{"x": 1.25, "whole": 3.0, "n": 7, "s": "a\"b\n", "ok": true, "none": null, "list": ["p", "q\\"], "in": {"nan": null}}"#
        );
    }
}
