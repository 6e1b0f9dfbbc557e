//! Plain-text table formatting for the experiment binaries.

/// Renders rows as an aligned text table with a header rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Right-aligned to `w` chars as `{cell:>w$}` would, without a
            // `format!` per cell (`se obs summarize` prints ~1M cells at 100k
            // requests).
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.extend(std::iter::repeat_n(' ', w.saturating_sub(cell.chars().count())));
            line.push_str(cell);
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio like the paper's figures (`3.4x`).
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of positive values (1.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|&x| x.max(1e-30).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(
            &["model", "CR"],
            &[vec!["VGG19".into(), "80.94".into()], vec!["R".into(), "8".into()]],
        );
        assert!(t.contains("VGG19"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(ratio(3.456), "3.46x");
        assert_eq!(pct(0.5), "50.0%");
    }
}
