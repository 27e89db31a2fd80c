//! Binning specifications: what to bin, onto what mesh, with which
//! reductions.

use sensei::{Error, Result};
use xmlcfg::Element;

/// A reduction incorporating a variable into a bin (§4.2: "The reduction
/// operations we support are summation, minimum, maximum, and average"),
/// plus the bare histogram count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Per-bin row count (the histogram).
    Count,
    /// Sum of the variable over the bin.
    Sum,
    /// Minimum of the variable over the bin (NaN for empty bins).
    Min,
    /// Maximum of the variable over the bin (NaN for empty bins).
    Max,
    /// Mean of the variable over the bin (NaN for empty bins).
    Average,
}

impl BinOp {
    /// The spelling used in XML (`sum`, `min`, `max`, `avg`, `count`).
    pub fn name(&self) -> &'static str {
        match self {
            BinOp::Count => "count",
            BinOp::Sum => "sum",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Average => "avg",
        }
    }

    /// Parse the XML spelling.
    pub fn parse(s: &str) -> Option<BinOp> {
        match s.trim().to_ascii_lowercase().as_str() {
            "count" => Some(BinOp::Count),
            "sum" => Some(BinOp::Sum),
            "min" => Some(BinOp::Min),
            "max" => Some(BinOp::Max),
            "avg" | "average" | "mean" => Some(BinOp::Average),
            _ => None,
        }
    }
}

/// One output: a reduction of a named variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarOp {
    /// The table column to reduce (empty for [`BinOp::Count`]).
    pub var: String,
    /// The reduction.
    pub op: BinOp,
}

impl VarOp {
    /// The output array's name, e.g. `sum_mass` or `count`.
    pub fn output_name(&self) -> String {
        if self.op == BinOp::Count {
            "count".to_string()
        } else {
            format!("{}_{}", self.op.name(), self.var)
        }
    }

    /// Parse `op(var)` (or bare `count()` / `count`).
    pub fn parse(s: &str) -> Result<VarOp> {
        let s = s.trim();
        let (op_str, var) = match s.find('(') {
            Some(i) => {
                let close = s
                    .rfind(')')
                    .ok_or_else(|| Error::Config(format!("missing ')' in operation '{s}'")))?;
                (&s[..i], s[i + 1..close].trim().to_string())
            }
            None => (s, String::new()),
        };
        let op = BinOp::parse(op_str)
            .ok_or_else(|| Error::Config(format!("unknown binning operation '{op_str}'")))?;
        if op != BinOp::Count && var.is_empty() {
            return Err(Error::Config(format!("operation '{s}' needs a variable")));
        }
        Ok(VarOp { var, op })
    }
}

/// A complete binning configuration — one "data binning operator
/// instance" in the paper's terms (the evaluation runs 9 of these, each
/// reducing 10 variables, for 90 binning operations per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct BinningSpec {
    /// The mesh (table) to consume.
    pub mesh: String,
    /// The two coordinate variables (the mesh's axes).
    pub axes: (String, String),
    /// Mesh resolution (cells per axis).
    pub resolution: (usize, usize),
    /// Reductions to compute.
    pub ops: Vec<VarOp>,
    /// Manual axis bounds `[lo, hi]` per axis; `None` = compute min/max
    /// on the fly (§4.2).
    pub bounds: Option<([f64; 2], [f64; 2])>,
}

impl BinningSpec {
    /// A spec binning `ops` over `(x, y)` on a square mesh.
    pub fn new(
        mesh: impl Into<String>,
        axes: (impl Into<String>, impl Into<String>),
        resolution: usize,
        ops: Vec<VarOp>,
    ) -> Self {
        BinningSpec {
            mesh: mesh.into(),
            axes: (axes.0.into(), axes.1.into()),
            resolution: (resolution, resolution),
            ops,
            bounds: None,
        }
    }

    /// Parse the back-end specific XML content:
    ///
    /// ```xml
    /// <analysis type="data_binning" ...>
    ///   <mesh name="bodies"/>
    ///   <axes>x,y</axes>
    ///   <operations>count(),sum(mass),avg(vx)</operations>
    ///   <resolution x="256" y="256"/>
    ///   <bounds xlo="-1" xhi="1" ylo="-1" yhi="1"/>  <!-- optional -->
    /// </analysis>
    /// ```
    pub fn from_element(el: &Element) -> Result<BinningSpec> {
        let mesh =
            el.find_child("mesh").and_then(|m| m.attr("name")).unwrap_or("bodies").to_string();
        let axes_el =
            el.find_child("axes").ok_or_else(|| Error::Config("missing <axes>".into()))?;
        let axes_txt = axes_el.text();
        let mut parts = axes_txt.split(',').map(str::trim);
        let ax = parts.next().filter(|s| !s.is_empty());
        let ay = parts.next().filter(|s| !s.is_empty());
        let (ax, ay) = match (ax, ay, parts.next()) {
            (Some(a), Some(b), None) => (a.to_string(), b.to_string()),
            _ => {
                return Err(Error::Config(format!(
                    "<axes> must name two variables, got '{axes_txt}'"
                )))
            }
        };

        let ops_el = el
            .find_child("operations")
            .ok_or_else(|| Error::Config("missing <operations>".into()))?;
        let ops: Vec<VarOp> = ops_el
            .text()
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(VarOp::parse)
            .collect::<Result<_>>()?;
        if ops.is_empty() {
            return Err(Error::Config("<operations> lists no operations".into()));
        }

        let (rx, ry) = match el.find_child("resolution") {
            None => (256, 256),
            Some(r) => (
                r.parse_attr_or::<usize>("x", 256).map_err(Error::Xml)?,
                r.parse_attr_or::<usize>("y", 256).map_err(Error::Xml)?,
            ),
        };
        if rx == 0 || ry == 0 {
            return Err(Error::Config("resolution must be positive".into()));
        }

        let bounds = match el.find_child("bounds") {
            None => None,
            Some(b) => {
                let xlo = b.parse_attr::<f64>("xlo").map_err(Error::Xml)?;
                let xhi = b.parse_attr::<f64>("xhi").map_err(Error::Xml)?;
                let ylo = b.parse_attr::<f64>("ylo").map_err(Error::Xml)?;
                let yhi = b.parse_attr::<f64>("yhi").map_err(Error::Xml)?;
                match (xlo, xhi, ylo, yhi) {
                    (Some(a), Some(b_), Some(c), Some(d)) => Some(([a, b_], [c, d])),
                    _ => return Err(Error::Config("<bounds> needs xlo/xhi/ylo/yhi".into())),
                }
            }
        };

        Ok(BinningSpec { mesh, axes: (ax, ay), resolution: (rx, ry), ops, bounds })
    }

    /// The spec's mesh over the axis ranges `x` and `y` (`[lo, hi]` each).
    pub(crate) fn grid(&self, x: [f64; 2], y: [f64; 2]) -> crate::GridParams {
        crate::GridParams::new(self.resolution.0, self.resolution.1, [x[0], y[0]], [x[1], y[1]])
    }

    /// Every variable the spec reads (axes + reduced variables, deduped).
    pub fn required_variables(&self) -> Vec<&str> {
        let mut vars = vec![self.axes.0.as_str(), self.axes.1.as_str()];
        for vo in &self.ops {
            if vo.op != BinOp::Count {
                vars.push(vo.var.as_str());
            }
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varop_parsing() {
        assert_eq!(
            VarOp::parse("sum(mass)").unwrap(),
            VarOp { var: "mass".into(), op: BinOp::Sum }
        );
        assert_eq!(
            VarOp::parse(" avg( vx ) ").unwrap(),
            VarOp { var: "vx".into(), op: BinOp::Average }
        );
        assert_eq!(VarOp::parse("count()").unwrap(), VarOp { var: "".into(), op: BinOp::Count });
        assert_eq!(VarOp::parse("count").unwrap().op, BinOp::Count);
        assert!(VarOp::parse("frobnicate(x)").is_err());
        assert!(VarOp::parse("sum()").is_err());
        assert!(VarOp::parse("sum(x").is_err());
    }

    #[test]
    fn output_names() {
        assert_eq!(VarOp::parse("sum(mass)").unwrap().output_name(), "sum_mass");
        assert_eq!(VarOp::parse("count()").unwrap().output_name(), "count");
    }

    #[test]
    fn binop_names_roundtrip() {
        for op in [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average] {
            assert_eq!(BinOp::parse(op.name()), Some(op));
        }
    }

    #[test]
    fn spec_from_xml() {
        let xml = r#"
            <analysis type="data_binning">
              <mesh name="particles"/>
              <axes>x, z</axes>
              <operations>count(), sum(mass), min(vx)</operations>
              <resolution x="64" y="32"/>
              <bounds xlo="-2" xhi="2" ylo="-1" yhi="1"/>
            </analysis>"#;
        let el = xmlcfg::parse(xml).unwrap();
        let spec = BinningSpec::from_element(&el).unwrap();
        assert_eq!(spec.mesh, "particles");
        assert_eq!(spec.axes, ("x".to_string(), "z".to_string()));
        assert_eq!(spec.resolution, (64, 32));
        assert_eq!(spec.ops.len(), 3);
        assert_eq!(spec.bounds, Some(([-2.0, 2.0], [-1.0, 1.0])));
        assert_eq!(spec.required_variables(), vec!["mass", "vx", "x", "z"]);
    }

    #[test]
    fn spec_defaults() {
        let xml = r#"<analysis><axes>x,y</axes><operations>count()</operations></analysis>"#;
        let el = xmlcfg::parse(xml).unwrap();
        let spec = BinningSpec::from_element(&el).unwrap();
        assert_eq!(spec.mesh, "bodies");
        assert_eq!(spec.resolution, (256, 256));
        assert_eq!(spec.bounds, None);
    }

    #[test]
    fn spec_rejects_bad_configs() {
        for xml in [
            r#"<a><operations>count()</operations></a>"#,
            r#"<a><axes>x</axes><operations>count()</operations></a>"#,
            r#"<a><axes>x,y,z</axes><operations>count()</operations></a>"#,
            r#"<a><axes>x,y</axes></a>"#,
            r#"<a><axes>x,y</axes><operations></operations></a>"#,
            r#"<a><axes>x,y</axes><operations>count()</operations><resolution x="0"/></a>"#,
            r#"<a><axes>x,y</axes><operations>count()</operations><bounds xlo="0"/></a>"#,
        ] {
            let el = xmlcfg::parse(xml).unwrap();
            assert!(BinningSpec::from_element(&el).is_err(), "should reject: {xml}");
        }
    }
}
