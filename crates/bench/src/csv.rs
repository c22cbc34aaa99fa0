//! Minimal CSV emission for figure series.

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use socialtube_experiments::figures::Table;

/// Writes one figure's series as a CSV file under an output directory.
///
/// # Examples
///
/// ```no_run
/// use socialtube_bench::CsvWriter;
///
/// let mut w = CsvWriter::create("target/figures", "fig7").unwrap();
/// w.header(&["views", "cdf"]).unwrap();
/// w.row(&[1000.0, 0.5]).unwrap();
/// ```
#[derive(Debug)]
pub struct CsvWriter {
    out: BufWriter<File>,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates `<dir>/<name>.csv`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: impl AsRef<Path>, name: &str) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{name}.csv"));
        Ok(Self {
            out: BufWriter::new(File::create(&path)?),
            path,
        })
    }

    /// Writes `table`'s series as `<dir>/<table.file>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and IO errors.
    pub fn write_table(dir: impl AsRef<Path>, table: &Table) -> io::Result<PathBuf> {
        let mut csv = Self::create(dir, &table.file)?;
        csv.header(&table.header)?;
        for row in &table.rows {
            csv.row_strs(row)?;
        }
        csv.finish()
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the header row.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn header(&mut self, columns: &[&str]) -> io::Result<()> {
        self.write_cells(columns)
    }

    /// Writes one row of displayable values.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn row<T: Display>(&mut self, values: &[T]) -> io::Result<()> {
        let cells: Vec<String> = values.iter().map(T::to_string).collect();
        self.write_cells(&cells)
    }

    /// Writes one row of heterogeneous, already-formatted cells.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn row_strs(&mut self, values: &[String]) -> io::Result<()> {
        self.write_cells(values)
    }

    /// Writes one record, quoting (RFC 4180) any cell that holds a comma,
    /// a quote or a line break.
    fn write_cells<S: AsRef<str>>(&mut self, cells: &[S]) -> io::Result<()> {
        let quoted: Vec<String> = cells
            .iter()
            .map(|cell| match cell.as_ref() {
                c if c.contains([',', '"', '\n', '\r']) => {
                    format!("\"{}\"", c.replace('"', "\"\""))
                }
                c => c.to_string(),
            })
            .collect();
        writeln!(self.out, "{}", quoted.join(","))
    }

    /// Flushes the file.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("socialtube-csv-test");
        let mut w = CsvWriter::create(&dir, "sample").unwrap();
        w.header(&["a", "b"]).unwrap();
        w.row(&[1, 2]).unwrap();
        w.row_strs(&["x".into(), "3.5".into()]).unwrap();
        let path = w.finish().unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\nx,3.5\n");

        // A table cell holding a comma or a quote is quoted, so a CSV
        // reader gets back `N_l, N_h` and `say "hi"`.
        let table = Table {
            file: "quoted".into(),
            title: String::new(),
            header: vec!["a", "b"],
            rows: vec![vec!["N_l, N_h".into(), "say \"hi\"".into()]],
            notes: Vec::new(),
        };
        let path = CsvWriter::write_table(&dir, &table).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n\"N_l, N_h\",\"say \"\"hi\"\"\"\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn path_is_under_directory() {
        let dir = std::env::temp_dir().join("socialtube-csv-test2");
        let w = CsvWriter::create(&dir, "p").unwrap();
        assert!(w.path().starts_with(&dir));
        assert!(w.path().ends_with("p.csv"));
        std::fs::remove_dir_all(dir).ok();
    }
}
