//! The Fig-8 workload text format: parse and write.
//!
//! ```text
//! # ResNet-50, data parallel (comment lines start with '#')
//! DATA
//! 2
//! conv1  120000 NONE 0  130000 NONE 0  110000 ALLREDUCE 37632  2
//! fc1000 9000   NONE 0  9000   NONE 0  8000   ALLREDUCE 8192000 2
//! ```
//!
//! * Line 1: parallelism — `DATA`, `MODEL`, or
//!   `HYBRID data=<dims> model=<dims>` with comma-separated dimension names
//!   (`local`, `vertical`, `horizontal`, `package`);
//! * Line 2: layer count;
//! * One line per layer:
//!   `name fwd_time fwd_type fwd_size ig_time ig_type ig_size wg_time
//!   wg_type wg_size update_per_kb`, with times in cycles, sizes in bytes,
//!   and types in `NONE | ALLREDUCE | ALLGATHER | REDUCESCATTER | ALLTOALL`.

use crate::{CommSpec, LayerSpec, Parallelism, Workload};
use astra_collectives::CollectiveOp;
use astra_des::Time;
use astra_topology::Dim;
use std::error::Error;
use std::fmt;

/// A parse failure, with the offending 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_dim(s: &str, line: usize) -> Result<Dim, ParseError> {
    match s {
        "local" => Ok(Dim::Local),
        "vertical" => Ok(Dim::Vertical),
        "horizontal" => Ok(Dim::Horizontal),
        "package" => Ok(Dim::Package),
        "scaleout" => Ok(Dim::ScaleOut),
        other => Err(err(line, format!("unknown dimension '{other}'"))),
    }
}

fn dim_name(d: Dim) -> &'static str {
    match d {
        Dim::Local => "local",
        Dim::Vertical => "vertical",
        Dim::Horizontal => "horizontal",
        Dim::Package => "package",
        Dim::ScaleOut => "scaleout",
    }
}

fn parse_dims(s: &str, line: usize) -> Result<Vec<Dim>, ParseError> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| parse_dim(p, line))
        .collect()
}

fn parse_comm_op(s: &str, line: usize) -> Result<Option<CollectiveOp>, ParseError> {
    match s {
        "NONE" => Ok(None),
        "ALLREDUCE" => Ok(Some(CollectiveOp::AllReduce)),
        "ALLGATHER" => Ok(Some(CollectiveOp::AllGather)),
        "REDUCESCATTER" => Ok(Some(CollectiveOp::ReduceScatter)),
        "ALLTOALL" => Ok(Some(CollectiveOp::AllToAll)),
        other => Err(err(line, format!("unknown collective type '{other}'"))),
    }
}

fn comm_op_name(op: CollectiveOp) -> &'static str {
    match op {
        CollectiveOp::AllReduce => "ALLREDUCE",
        CollectiveOp::AllGather => "ALLGATHER",
        CollectiveOp::ReduceScatter => "REDUCESCATTER",
        CollectiveOp::AllToAll => "ALLTOALL",
    }
}

fn parse_u64(s: &str, what: &str, line: usize) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| err(line, format!("invalid {what} '{s}'")))
}

/// Parses a workload from the Fig-8 text format. `name` becomes the
/// workload's `DNN_name`.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the first malformed line.
pub fn parse(name: &str, input: &str) -> Result<Workload, ParseError> {
    // Meaningful lines with their original numbers.
    let mut lines = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (pline, ptext) = lines.next().ok_or_else(|| err(1, "empty workload file"))?;
    let mut ptoks = ptext.split_whitespace();
    let parallelism = match ptoks.next() {
        Some("DATA") => Parallelism::Data,
        Some("MODEL") => Parallelism::Model,
        Some("HYBRID") => {
            let mut data_dims = None;
            let mut model_dims = None;
            for tok in ptoks {
                if let Some(rest) = tok.strip_prefix("data=") {
                    data_dims = Some(parse_dims(rest, pline)?);
                } else if let Some(rest) = tok.strip_prefix("model=") {
                    model_dims = Some(parse_dims(rest, pline)?);
                } else {
                    return Err(err(pline, format!("unexpected token '{tok}'")));
                }
            }
            Parallelism::Hybrid {
                data_dims: data_dims.ok_or_else(|| err(pline, "HYBRID needs data=<dims>"))?,
                model_dims: model_dims.ok_or_else(|| err(pline, "HYBRID needs model=<dims>"))?,
            }
        }
        other => {
            return Err(err(
                pline,
                format!("expected DATA/MODEL/HYBRID, got '{}'", other.unwrap_or("")),
            ))
        }
    };

    let (cline, ctext) = lines
        .next()
        .ok_or_else(|| err(pline, "missing layer count"))?;
    let count = parse_u64(ctext, "layer count", cline)? as usize;

    let mut layers = Vec::with_capacity(count);
    for _ in 0..count {
        let (lno, ltext) = lines
            .next()
            .ok_or_else(|| err(cline, format!("expected {count} layer lines")))?;
        let toks: Vec<&str> = ltext.split_whitespace().collect();
        if toks.len() != 11 {
            return Err(err(
                lno,
                format!("expected 11 fields per layer line, got {}", toks.len()),
            ));
        }
        let comm = |op_tok: &str, size_tok: &str| -> Result<Option<CommSpec>, ParseError> {
            match parse_comm_op(op_tok, lno)? {
                None => Ok(None),
                Some(op) => {
                    let bytes = parse_u64(size_tok, "communication size", lno)?;
                    if bytes == 0 {
                        return Err(err(lno, "collective with zero size"));
                    }
                    Ok(Some(CommSpec::new(op, bytes)))
                }
            }
        };
        layers.push(LayerSpec {
            name: toks[0].to_owned(),
            fwd_compute: Time::from_cycles(parse_u64(toks[1], "forward time", lno)?),
            fwd_comm: comm(toks[2], toks[3])?,
            ig_compute: Time::from_cycles(parse_u64(toks[4], "input-grad time", lno)?),
            ig_comm: comm(toks[5], toks[6])?,
            wg_compute: Time::from_cycles(parse_u64(toks[7], "weight-grad time", lno)?),
            wg_comm: comm(toks[8], toks[9])?,
            local_update_per_kb: Time::from_cycles(parse_u64(toks[10], "update time", lno)?),
        });
    }
    if let Some((lno, _)) = lines.next() {
        return Err(err(lno, "trailing content after the declared layers"));
    }
    Ok(Workload {
        name: name.to_owned(),
        parallelism,
        layers,
    })
}

/// Writes a workload in the Fig-8 text format (inverse of [`parse`]).
pub fn write(workload: &Workload) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", workload.name));
    match &workload.parallelism {
        Parallelism::Data => out.push_str("DATA\n"),
        Parallelism::Model => out.push_str("MODEL\n"),
        Parallelism::Hybrid {
            data_dims,
            model_dims,
        } => {
            let fmt_dims = |dims: &[Dim]| {
                dims.iter()
                    .map(|&d| dim_name(d))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "HYBRID data={} model={}\n",
                fmt_dims(data_dims),
                fmt_dims(model_dims)
            ));
        }
    }
    out.push_str(&format!("{}\n", workload.layers.len()));
    for l in &workload.layers {
        let comm = |c: &Option<CommSpec>| match c {
            None => ("NONE", 0),
            Some(c) => (comm_op_name(c.op), c.bytes),
        };
        let (ft, fs) = comm(&l.fwd_comm);
        let (it, is) = comm(&l.ig_comm);
        let (wt, ws) = comm(&l.wg_comm);
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {} {} {}\n",
            l.name,
            l.fwd_compute.cycles(),
            ft,
            fs,
            l.ig_compute.cycles(),
            it,
            is,
            l.wg_compute.cycles(),
            wt,
            ws,
            l.local_update_per_kb.cycles(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn roundtrip_all_zoo_models() {
        let m = astra_compute::ComputeModel::tpu_like_256();
        for wl in [
            zoo::tiny_mlp(),
            zoo::tiny_hybrid(),
            zoo::resnet50(&m, 32),
            zoo::transformer(&m, 32, 64),
            zoo::dlrm(&m, 32),
        ] {
            let text = write(&wl);
            let back = parse(&wl.name, &text).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
            assert_eq!(back, wl);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nDATA\n# count next\n1\nl1 10 NONE 0 10 NONE 0 10 ALLREDUCE 100 2\n";
        let w = parse("x", text).unwrap();
        assert_eq!(w.layers.len(), 1);
        assert_eq!(w.layers[0].wg_comm.unwrap().bytes, 100);
    }

    #[test]
    fn hybrid_header() {
        let text = "HYBRID data=local,horizontal model=vertical\n0\n";
        let w = parse("x", text).unwrap();
        assert_eq!(
            w.parallelism,
            Parallelism::Hybrid {
                data_dims: vec![Dim::Local, Dim::Horizontal],
                model_dims: vec![Dim::Vertical],
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad_parallelism = parse("x", "BOGUS\n0\n").unwrap_err();
        assert_eq!(bad_parallelism.line, 1);

        let bad_fields = parse("x", "DATA\n1\nl1 10 NONE 0\n").unwrap_err();
        assert_eq!(bad_fields.line, 3);
        assert!(bad_fields.to_string().contains("11 fields"));

        let bad_type = parse("x", "DATA\n1\nl1 10 FOO 0 10 NONE 0 10 NONE 0 2\n").unwrap_err();
        assert!(bad_type.message.contains("FOO"));

        let zero_comm =
            parse("x", "DATA\n1\nl1 10 ALLREDUCE 0 10 NONE 0 10 NONE 0 2\n").unwrap_err();
        assert!(zero_comm.message.contains("zero"));

        let missing = parse("x", "DATA\n2\nl1 10 NONE 0 10 NONE 0 10 NONE 0 2\n").unwrap_err();
        assert!(missing.message.contains("expected 2"));

        let trailing = parse(
            "x",
            "DATA\n1\nl1 10 NONE 0 10 NONE 0 10 NONE 0 2\nextra line here 1 2\n",
        )
        .unwrap_err();
        assert!(trailing.message.contains("trailing"));

        let empty = parse("x", "# nothing\n").unwrap_err();
        assert!(empty.message.contains("empty"));
    }

    #[test]
    fn hybrid_requires_both_dim_sets() {
        assert!(parse("x", "HYBRID data=local\n0\n").is_err());
        assert!(parse("x", "HYBRID model=vertical\n0\n").is_err());
        assert!(parse("x", "HYBRID data=bogus model=vertical\n0\n").is_err());
    }
}
