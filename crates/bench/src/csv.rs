//! The one CSV writer: a [`Table`]'s header and rows as a file.

use std::path::{Path, PathBuf};
use std::{fs, io};

use socialtube_experiments::figures::Table;

/// Writes `table`'s header and rows as `<dir>/<table.file>.csv`, creating
/// the directory if needed, and returns the file's path. A cell holding a
/// comma, a quote or a line break is quoted (RFC 4180).
///
/// # Errors
///
/// Propagates filesystem and IO errors.
///
/// # Examples
///
/// ```no_run
/// use socialtube_experiments::figures;
///
/// let path = socialtube_bench::write_table("target/figures", &figures::table1()).unwrap();
/// assert!(path.ends_with("table1.csv"));
/// ```
pub fn write_table(dir: impl AsRef<Path>, table: &Table) -> io::Result<PathBuf> {
    let quote = |cell: &String| match cell {
        c if c.contains([',', '"', '\n', '\r']) => format!("\"{}\"", c.replace('"', "\"\"")),
        c => c.clone(),
    };
    let header: Vec<String> = table.header.iter().map(|h| h.to_string()).collect();
    let mut csv = String::new();
    for line in std::iter::once(&header).chain(&table.rows) {
        let cells: Vec<String> = line.iter().map(quote).collect();
        csv += &(cells.join(",") + "\n");
    }
    fs::create_dir_all(dir.as_ref())?;
    let path = dir.as_ref().join(format!("{}.csv", table.file));
    fs::write(&path, csv)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(file: &str, header: Vec<&'static str>, rows: Vec<Vec<String>>) -> Table {
        Table {
            file: file.into(),
            header,
            rows,
            result: true,
            ..Table::default()
        }
    }

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("socialtube-csv-test");
        let rows = vec![vec!["1".into(), "2".into()], vec!["x".into(), "3.5".into()]];
        let path = write_table(&dir, &table("sample", vec!["a", "b"], rows)).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\nx,3.5\n");

        // A table cell holding a comma or a quote is quoted, so a CSV
        // reader gets back `N_l, N_h` and `say "hi"`.
        let rows = vec![vec!["N_l, N_h".into(), "say \"hi\"".into()]];
        let path = write_table(&dir, &table("quoted", vec!["a", "b"], rows)).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n\"N_l, N_h\",\"say \"\"hi\"\"\"\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn path_is_under_directory() {
        let dir = std::env::temp_dir().join("socialtube-csv-test2");
        let path = write_table(&dir, &table("p", vec!["a"], Vec::new())).unwrap();
        assert!(path.starts_with(&dir));
        assert!(path.ends_with("p.csv"));
        std::fs::remove_dir_all(dir).ok();
    }

    /// stdout rounds a result table's cells; the CSV keeps them whole.
    #[test]
    fn rendering_leaves_the_csv_at_full_precision() {
        let dir = std::env::temp_dir().join("socialtube-csv-test3");
        let rows = vec![vec!["SocialTube".into(), "0.5887980608061064".into()]];
        let t = table("rendered", vec!["protocol", "p1"], rows);
        let before = std::fs::read(write_table(&dir, &t).unwrap()).unwrap();
        assert!(t.to_string().contains("SocialTube  0.589"), "{t}");
        let after = std::fs::read(write_table(&dir, &t).unwrap()).unwrap();
        assert_eq!(before, after);
        assert_eq!(after, b"protocol,p1\nSocialTube,0.5887980608061064\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
