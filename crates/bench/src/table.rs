//! Minimal fixed-width text tables for the harness binaries.

/// Renders rows as a fixed-width table with a header and a rule.
///
/// # Examples
///
/// ```
/// let t = mgpu_bench::table::render(
///     &["config", "speedup"],
///     &[vec!["baseline".into(), "1.00".into()]],
/// );
/// assert!(t.contains("baseline"));
/// assert!(t.lines().count() >= 3);
/// ```
#[must_use]
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let t = render(
            &["a", "bee"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("x     "));
    }
}
