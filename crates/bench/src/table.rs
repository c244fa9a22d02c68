//! One table per figure: a name, its columns and its rows, rendered once as
//! an aligned console grid and once as CSV.

use std::iter::once;

/// One cell of a table row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A measured value (integers too: every count a figure reports is far
    /// below 2^53, where an `f64` prints as the integer does).
    Num(f64),
    /// A label: a result-size bin, an expiry model, a flag.
    Text(String),
}

impl Cell {
    /// A label cell.
    pub fn text(label: impl ToString) -> Cell {
        Cell::Text(label.to_string())
    }

    /// A row of measured values.
    pub fn nums<const N: usize>(values: [f64; N]) -> Vec<Cell> {
        values.map(Cell::Num).to_vec()
    }

    /// The cell as the CSV holds it, a number in its shortest round-trip
    /// form (`{}`), or as the console shows it, to `decimals` places.
    fn show(&self, decimals: Option<usize>) -> String {
        match (self, decimals) {
            (Cell::Num(v), None) => v.to_string(),
            (Cell::Num(v), Some(d)) => format!("{v:.d$}"),
            (Cell::Text(s), _) => s.clone(),
        }
    }
}

/// A figure's result.
#[derive(Debug, Clone)]
pub struct Table {
    /// File stem of the CSV and text renderings (`fig4` → `fig4.csv`).
    pub name: &'static str,
    /// Banner printed above the console grid: the figure and what the paper
    /// reports for it.
    pub title: &'static str,
    /// Column name (the CSV header) and the decimals the console shows.
    pub columns: Vec<(&'static str, usize)>,
    /// One cell per column in each row.
    pub rows: Vec<Vec<Cell>>,
    /// Console-only lines printed under the grid.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with no rows or notes yet. `columns` lists `name:decimals`
    /// pairs separated by spaces: `"delta:2 uniform:4"`.
    ///
    /// # Panics
    /// If a pair has no `:` or its decimals do not parse.
    pub fn new(name: &'static str, title: &'static str, columns: &'static str) -> Self {
        let column = |spec: &'static str| {
            let (name, decimals) = spec.split_once(':').expect("name:decimals");
            (name, decimals.parse().expect("decimals"))
        };
        Table {
            name,
            title,
            columns: columns.split_whitespace().map(column).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The CSV rendering: a header line, then one line per row.
    pub fn csv(&self) -> String {
        let head = self.columns.iter().map(|c| c.0).collect::<Vec<_>>();
        let rows = self.rows.iter().map(|row| {
            let cells: Vec<String> = row.iter().map(|c| c.show(None)).collect();
            cells.join(",")
        });
        once(head.join(",")).chain(rows).map(|l| l + "\n").collect()
    }

    /// The console rendering: every column right-aligned to its widest cell.
    pub fn grid(&self) -> String {
        let head = self.columns.iter().map(|c| c.0.to_owned()).collect();
        let rows = self.rows.iter().map(|row| {
            let shown = row.iter().zip(&self.columns);
            shown.map(|(c, col)| c.show(Some(col.1))).collect()
        });
        let lines: Vec<Vec<String>> = once(head).chain(rows).collect();
        let width = |i: usize| {
            lines
                .iter()
                .map(|l| l[i].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.columns.len()).map(width).collect();
        let line = |l: &Vec<String>| {
            let padded: Vec<String> = l
                .iter()
                .zip(&widths)
                .map(|(t, w)| format!("{t:>w$}"))
                .collect();
            padded.join("  ") + "\n"
        };
        lines.iter().map(line).collect()
    }

    /// Every value of column `name`, in row order.
    ///
    /// # Panics
    /// If the table has no such column or a cell in it is a label.
    pub fn col(&self, name: &str) -> Vec<f64> {
        let i = self
            .columns
            .iter()
            .position(|c| c.0 == name)
            .unwrap_or_else(|| panic!("{} has no column {name}", self.name));
        self.rows
            .iter()
            .map(|row| match row[i] {
                Cell::Num(v) => v,
                Cell::Text(ref s) => panic!("{}.{name} holds the label {s}", self.name),
            })
            .collect()
    }

    /// The values of column `name` in the rows whose `key` column equals
    /// `value`, in row order.
    pub fn col_where(&self, name: &str, key: &str, value: f64) -> Vec<f64> {
        self.col(name)
            .into_iter()
            .zip(self.col(key))
            .filter(|&(_, k)| k == value)
            .map(|(v, _)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent harness wrote each CSV cell with `format!("{}")` of the
    /// value it held: `u64` / `usize` counts, `f64` measurements, labels and
    /// flags. The renderer holds counts as `f64` and must print the same.
    #[test]
    fn csv_cells_print_as_the_values_they_hold_did() {
        let (mins, sample, probes) = (10u64, 10_000usize, 22_809u64);
        let measured = [
            0.0,
            -0.0,
            -0.9811755960232451,
            1e-9,
            1.0000000000000002e-9,
            -1e-9,
            0.16,
            0.1 + 0.2,
            0.15000000000000002,
            1e21,
            f64::INFINITY,
        ];
        let mut cells = vec![
            Cell::Num(mins as f64),
            Cell::Num(sample as f64),
            Cell::Num(probes as f64),
            Cell::Num(u32::MAX as f64),
            Cell::text(format!(">{}", 6_400)),
            Cell::text("1600-6400"),
            Cell::text(false),
        ];
        cells.extend(measured.map(Cell::Num));
        let mut want = vec![
            format!("{mins}"),
            format!("{sample}"),
            format!("{probes}"),
            format!("{}", u32::MAX),
            ">6400".to_owned(),
            "1600-6400".to_owned(),
            format!("{}", false),
        ];
        want.extend(measured.map(|v| format!("{v}")));
        let mut t = Table::new("t", "", String::leak(vec!["c:1"; cells.len()].join(" ")));
        t.rows.push(cells);
        let csv = t.csv();
        assert_eq!(csv.lines().nth(1), Some(want.join(",").as_str()));
    }

    #[test]
    fn one_table_renders_as_csv_and_as_an_aligned_grid() {
        let mut t = Table::new("t", "T", "bin:0 value:1");
        t.rows
            .push(vec![Cell::text(">6400"), Cell::Num(245.73394495412845)]);
        t.rows.push(vec![Cell::text("0-25"), Cell::Num(-8.0)]);
        assert_eq!(t.csv(), "bin,value\n>6400,245.73394495412845\n0-25,-8\n");
        assert_eq!(t.grid(), "  bin  value\n>6400  245.7\n 0-25   -8.0\n");
        assert_eq!(t.col("value"), [245.73394495412845, -8.0]);
        assert_eq!(t.col_where("value", "value", -8.0), [-8.0]);
    }
}
