//! Text exports: structural Verilog and ASCII AIGER.

use std::fmt::Write as _;

use crate::Aig;

impl Aig {
    /// Renders the graph as structural gate-level Verilog, one
    /// `assign` per AND node (inverters folded into the expressions).
    ///
    /// Port names are sanitized to Verilog identifiers by replacing
    /// non-alphanumeric characters with `_` and suffixing the port
    /// position to keep them unique.
    pub fn to_verilog(&self, module_name: &str) -> String {
        let sanitize = |name: &str, idx: usize, prefix: &str| -> String {
            let body: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            format!("{prefix}{idx}_{body}")
        };
        let in_names: Vec<String> = (0..self.num_inputs())
            .map(|k| sanitize(self.input_name(k), k, "pi"))
            .collect();
        let out_names: Vec<String> = self
            .outputs()
            .iter()
            .enumerate()
            .map(|(k, (_, n))| sanitize(n, k, "po"))
            .collect();
        let mut s = format!("module {module_name} (\n");
        for n in &in_names {
            let _ = writeln!(s, "  input  wire {n},");
        }
        for (k, n) in out_names.iter().enumerate() {
            let sep = if k + 1 == out_names.len() { "" } else { "," };
            let _ = writeln!(s, "  output wire {n}{sep}");
        }
        s.push_str(");\n");
        let edge_expr = |e: crate::Edge| -> String {
            let base = if e.node() == crate::NodeId::CONST {
                "1'b0".to_owned()
            } else if let Some(pos) = self.input_position(e.node()) {
                in_names[pos].clone()
            } else {
                format!("n{}", e.node().index())
            };
            if e.is_complemented() {
                if base == "1'b0" {
                    "1'b1".to_owned()
                } else {
                    format!("~{base}")
                }
            } else {
                base
            }
        };
        for (n, a, b) in self.ands() {
            let _ = writeln!(
                s,
                "  wire n{} = {} & {};",
                n.index(),
                edge_expr(a),
                edge_expr(b)
            );
        }
        for (k, (e, _)) in self.outputs().iter().enumerate() {
            let _ = writeln!(s, "  assign {} = {};", out_names[k], edge_expr(*e));
        }
        s.push_str("endmodule\n");
        s
    }

    /// Renders the graph in the ASCII AIGER (`aag`) format.
    ///
    /// Node `k` maps to AIGER variable `k`, so literals are exactly the
    /// internal edge codes. Input and output symbol tables are emitted.
    pub fn to_aiger_ascii(&self) -> String {
        let max_var = self.node_count() - 1;
        let mut s = format!(
            "aag {} {} 0 {} {}\n",
            max_var,
            self.num_inputs(),
            self.num_outputs(),
            self.and_count()
        );
        for pos in 0..self.num_inputs() {
            let _ = writeln!(s, "{}", self.input_edge(pos).code());
        }
        for (e, _) in self.outputs() {
            let _ = writeln!(s, "{}", e.code());
        }
        for (n, a, b) in self.ands() {
            let _ = writeln!(s, "{} {} {}", n.index() * 2, a.code(), b.code());
        }
        for pos in 0..self.num_inputs() {
            let _ = writeln!(s, "i{pos} {}", self.input_name(pos));
        }
        for (i, (_, name)) in self.outputs().iter().enumerate() {
            let _ = writeln!(s, "o{i} {name}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y = g.and(a, !b);
        g.add_output(!y, "y");
        g
    }

    #[test]
    fn verilog_export_structure() {
        let v = tiny().to_verilog("tiny");
        assert!(v.starts_with("module tiny ("));
        assert!(v.contains("input  wire pi0_a,"));
        assert!(v.contains("output wire po0_y"));
        assert!(v.contains("wire n3 = pi0_a & ~pi1_b;"));
        assert!(v.contains("assign po0_y = ~n3;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn verilog_sanitizes_bus_names() {
        let mut g = Aig::new();
        let a = g.add_input("data[3]");
        g.add_output(!a, "q<0>");
        let v = g.to_verilog("m");
        assert!(v.contains("pi0_data_3_"), "{v}");
        assert!(v.contains("po0_q_0_"), "{v}");
        assert!(v.contains("assign po0_q_0_ = ~pi0_data_3_;"), "{v}");
    }

    #[test]
    fn verilog_constant_output() {
        let mut g = Aig::new();
        let _ = g.add_input("a");
        g.add_output(crate::Edge::TRUE, "one");
        let v = g.to_verilog("m");
        assert!(v.contains("assign po0_one = 1'b1;"), "{v}");
    }

    #[test]
    fn aiger_header_and_body() {
        let aag = tiny().to_aiger_ascii();
        let mut lines = aag.lines();
        assert_eq!(lines.next(), Some("aag 3 2 0 1 1"));
        assert_eq!(lines.next(), Some("2")); // input a
        assert_eq!(lines.next(), Some("4")); // input b
        assert_eq!(lines.next(), Some("7")); // output !n3
        assert_eq!(lines.next(), Some("6 2 5")); // and node: a & !b
        assert_eq!(lines.next(), Some("i0 a"));
        assert_eq!(lines.next(), Some("i1 b"));
        assert_eq!(lines.next(), Some("o0 y"));
    }
}
