//! Standard Workload Format (SWF) support.
//!
//! The CTC trace in the paper comes from Feitelson's Parallel Workloads
//! Archive, which distributes logs in SWF: one job per line, 18
//! whitespace-separated fields, `;`-prefixed comment headers. Users who
//! have real logs (PSC, CTC, or any archive trace) can load them here and
//! run every experiment in this workspace against genuine data; the rest
//! of the workspace falls back to the calibrated presets.
//!
//! Field reference (0-based index → meaning): 0 job number, 1 submit
//! time, 2 wait time, 3 run time, 4 allocated processors, 5 average CPU
//! time, 6 used memory, 7 requested processors, 8 requested time,
//! 9 requested memory, 10 status, 11 user, 12 group, 13 executable,
//! 14 queue, 15 partition, 16 preceding job, 17 think time.

use crate::job::Job;
use crate::trace::Trace;

/// Error from SWF parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number where parsing failed
    pub line: usize,
    /// what went wrong
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Filtering options applied while reading an SWF log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfFilter {
    /// keep only jobs requesting exactly this many processors
    /// (the paper keeps only 8-processor CTC jobs — footnote 2)
    pub exact_processors: Option<u32>,
    /// drop jobs with non-positive runtime (cancelled / missing data)
    pub require_positive_runtime: bool,
    /// keep only jobs with SWF status 1 ("completed")
    pub completed_only: bool,
}

impl Default for SwfFilter {
    fn default() -> Self {
        Self {
            exact_processors: None,
            require_positive_runtime: true,
            completed_only: false,
        }
    }
}

/// One parsed SWF record (the subset of fields this workspace uses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    /// SWF job number
    pub job_number: i64,
    /// submit time, seconds from log start
    pub submit: f64,
    /// measured run time, seconds
    pub run_time: f64,
    /// number of allocated processors (−1 if unknown)
    pub processors: i64,
    /// requested processors (−1 if unknown)
    pub requested_processors: i64,
    /// completion status (1 = completed)
    pub status: i64,
}

/// Parse SWF text into records (no filtering).
///
/// A submit or run time must parse to a finite number: SWF marks an
/// unknown value with −1, so `inf`, `nan` or a literal that overflows
/// `f64` (`1e400`) is an error naming its line and field.
pub fn parse_records(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
    numbered_records(text)
        .map(|r| r.map(|(_, record)| record))
        .collect()
}

/// The records of `text` in order, each with its 1-based line number.
fn numbered_records(text: &str) -> impl Iterator<Item = Result<(usize, SwfRecord), SwfError>> + '_ {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            return None;
        }
        Some(parse_line(idx + 1, line).map(|record| (idx + 1, record)))
    })
}

/// One non-comment SWF line.
fn parse_line(line_no: usize, line: &str) -> Result<SwfRecord, SwfError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 11 {
        return Err(SwfError {
            line: line_no,
            message: format!("expected at least 11 fields, found {}", fields.len()),
        });
    }
    let get_i64 = |i: usize| -> Result<i64, SwfError> {
        fields[i].parse::<i64>().map_err(|e| SwfError {
            line: line_no,
            message: format!("field {i} ({:?}) is not an integer: {e}", fields[i]),
        })
    };
    let get_time = |i: usize| -> Result<f64, SwfError> {
        let value = fields[i].parse::<f64>().map_err(|e| SwfError {
            line: line_no,
            message: format!("field {i} ({:?}) is not a number: {e}", fields[i]),
        })?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(SwfError {
                line: line_no,
                message: format!("field {i} ({:?}) is not a finite time", fields[i]),
            })
        }
    };
    Ok(SwfRecord {
        job_number: get_i64(0)?,
        submit: get_time(1)?,
        run_time: get_time(3)?,
        processors: get_i64(4)?,
        requested_processors: get_i64(7)?,
        status: get_i64(10)?,
    })
}

/// Parse SWF text directly into a [`Trace`], applying `filter`.
///
/// The job *size* is the SWF run time and the arrival is the submit time
/// — exactly the trace-driven-simulation inputs of the paper. Besides
/// [`parse_records`]' errors, it is an error when a kept job's run time
/// is not positive (possible only with `require_positive_runtime` off),
/// when it is so small that its reciprocal overflows (a subnormal such
/// as `1e-310`: no slowdown could be computed), or when the kept run
/// times sum past the largest `f64`: no load or
/// mean size could be computed from them. Once two jobs are kept, it is
/// also an error when their squares sum past the largest `f64`, since no
/// C² could be computed; the error names the run time that took that sum
/// past it. A lone job's C² is 0 whatever its size.
///
/// Last, it is an error when the kept run times' total divided by the
/// smallest of them is not finite; the error names that smallest run
/// time's line. A host never idles while it holds work, so no job waits
/// longer than the total run time, and `total / size + 1` bounds every
/// slowdown: past `f64`, a slowdown could be `+inf` and every slowdown
/// mean NaN.
pub fn parse_trace(text: &str, filter: SwfFilter) -> Result<Trace, SwfError> {
    let mut jobs = Vec::new();
    let mut work = 0.0f64;
    let mut squares = 0.0f64;
    // the line and run time at which `squares` stopped being finite
    let mut squares_overflow = None;
    // the line and run time of the first smallest kept run time
    let mut smallest: Option<(usize, f64)> = None;
    for numbered in numbered_records(text) {
        let (line, r) = numbered?;
        if !filter.keeps(&r) {
            continue;
        }
        if !(r.run_time > 0.0) {
            return Err(SwfError {
                line,
                message: format!("field 3 ({:?}) is not a positive run time", r.run_time),
            });
        }
        if !(1.0 / r.run_time).is_finite() {
            return Err(SwfError {
                line,
                message: format!(
                    "field 3 ({:?}) is a run time whose reciprocal overflows: no slowdown \
                     can be computed",
                    r.run_time
                ),
            });
        }
        work += r.run_time;
        if !work.is_finite() {
            return Err(SwfError {
                line,
                message: format!(
                    "field 3 ({:?}) overflows the total run time of the kept jobs",
                    r.run_time
                ),
            });
        }
        squares += r.run_time * r.run_time;
        if !squares.is_finite() {
            let (line, run_time) = *squares_overflow.get_or_insert((line, r.run_time));
            if !jobs.is_empty() {
                return Err(SwfError {
                    line,
                    message: format!(
                        "field 3 ({run_time:?}) overflows the sum of the kept run times' \
                         squares: no C² can be computed"
                    ),
                });
            }
        }
        if smallest.is_none_or(|(_, min)| r.run_time < min) {
            smallest = Some((line, r.run_time));
        }
        jobs.push(Job::new(jobs.len() as u64, r.submit, r.run_time));
    }
    if let Some((line, run_time)) = smallest.filter(|&(_, min)| !(work / min).is_finite()) {
        return Err(SwfError {
            line,
            message: format!(
                "field 3 ({run_time:?}) is so small beside the kept run times' total \
                 ({work:?}) that a slowdown can overflow"
            ),
        });
    }
    Ok(Trace::new(jobs))
}

impl SwfFilter {
    /// Whether `r` passes the filter (and has a non-negative submit time).
    fn keeps(&self, r: &SwfRecord) -> bool {
        if self.require_positive_runtime && !(r.run_time > 0.0) {
            return false;
        }
        if self.completed_only && r.status != 1 {
            return false;
        }
        if let Some(p) = self.exact_processors {
            let procs = if r.requested_processors > 0 {
                r.requested_processors
            } else {
                r.processors
            };
            if procs != i64::from(p) {
                return false;
            }
        }
        r.submit >= 0.0
    }
}

/// Render a trace back out as minimal SWF (unknown fields written as −1).
#[must_use]
pub fn write_swf(trace: &Trace, processors_per_job: u32) -> String {
    let mut out = String::with_capacity(trace.len() * 64);
    out.push_str("; generated by dses-workload\n");
    out.push_str("; UnixStartTime: 0\n");
    for j in trace.jobs() {
        // job submit wait run procs cpu mem reqp reqt reqm status ...
        out.push_str(&format!(
            "{} {:.0} -1 {:.0} {} -1 -1 {} -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
            j.id + 1,
            j.arrival,
            j.size,
            processors_per_job,
            processors_per_job,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: test machine
1 0 5 100 8 -1 -1 8 120 -1 1 1 1 -1 1 -1 -1 -1
2 10 0 50 4 -1 -1 4 60 -1 1 2 1 -1 1 -1 -1 -1
3 20 2 0 8 -1 -1 8 30 -1 5 3 1 -1 1 -1 -1 -1
4 30 1 200 8 -1 -1 8 240 -1 0 4 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_records_skipping_comments() {
        let recs = parse_records(SAMPLE).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].job_number, 1);
        assert_eq!(recs[1].run_time, 50.0);
        assert_eq!(recs[3].status, 0);
    }

    #[test]
    fn default_filter_drops_zero_runtime() {
        let t = parse_trace(SAMPLE, SwfFilter::default()).unwrap();
        assert_eq!(t.len(), 3); // job 3 has run_time 0
    }

    #[test]
    fn processor_filter_mimics_paper_footnote() {
        // the paper used only the 8-processor CTC jobs
        let t = parse_trace(
            SAMPLE,
            SwfFilter {
                exact_processors: Some(8),
                ..SwfFilter::default()
            },
        )
        .unwrap();
        assert_eq!(t.len(), 2); // jobs 1 and 4 (job 3 dropped: runtime 0)
    }

    #[test]
    fn completed_only_filter() {
        let t = parse_trace(
            SAMPLE,
            SwfFilter {
                completed_only: true,
                ..SwfFilter::default()
            },
        )
        .unwrap();
        assert_eq!(t.len(), 2); // jobs 1 and 2 have status 1
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_records("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("at least 11 fields"));
        let err = parse_records("a 0 0 1 1 1 1 1 1 1 1\n").unwrap_err();
        assert!(err.message.contains("not an integer"));
    }

    #[test]
    fn round_trip_through_writer() {
        let t = parse_trace(SAMPLE, SwfFilter::default()).unwrap();
        let text = write_swf(&t, 8);
        let t2 = parse_trace(&text, SwfFilter::default()).unwrap();
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.jobs().zip(t2.jobs()) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.size, b.size);
        }
    }

    /// An SWF line with the given submit and run time fields.
    fn line(submit: &str, run: &str) -> String {
        format!("1 {submit} 0 {run} 8 -1 -1 8 120 -1 1 1 1 -1 1 -1 -1 -1\n")
    }

    #[test]
    fn non_finite_run_times_are_errors_naming_line_and_field() {
        for run in ["inf", "1e400", "-inf", "nan", "NaN"] {
            let text = format!("; header\n{}{}", line("0", "10"), line("5", run));
            for err in [
                parse_records(&text).unwrap_err(),
                parse_trace(&text, SwfFilter::default()).unwrap_err(),
            ] {
                assert_eq!(err.line, 3, "run time {run}");
                assert!(err.message.contains("field 3"), "run time {run}: {err}");
                assert!(
                    err.message.contains("not a finite time"),
                    "run time {run}: {err}"
                );
            }
        }
    }

    #[test]
    fn non_finite_submit_times_are_errors_naming_line_and_field() {
        for submit in ["inf", "1e999", "nan"] {
            let text = format!("{}{}", line(submit, "10"), line("5", "10"));
            let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
            assert_eq!(err.line, 1, "submit time {submit}");
            assert!(
                err.message.contains("field 1"),
                "submit time {submit}: {err}"
            );
        }
    }

    #[test]
    fn a_total_run_time_past_the_largest_number_is_an_error_at_its_line() {
        let text = format!(
            "{}{}{}",
            line("0", "1e308"),
            line("1", "-1"),
            line("2", "1e308")
        );
        // the dropped −1 run time on line 2 adds nothing
        let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("field 3 (1e308) overflows"), "{err}");
        // records alone are fine: each value is finite
        assert_eq!(parse_records(&text).unwrap().len(), 3);
        // a filter that drops the first large job keeps the sum finite
        let kept = parse_trace(
            &text.replacen(" 8 120 ", " 4 120 ", 1),
            SwfFilter {
                exact_processors: Some(8),
                ..SwfFilter::default()
            },
        )
        .unwrap();
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn a_run_time_whose_square_overflows_is_an_error_at_its_line() {
        // the run times sum to a finite 1e200, but 1e200² is past f64
        let text = format!("{}{}{}", line("0", "1e200"), line("1", "1"), line("2", "5"));
        let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message
                .contains("field 3 (1e200) overflows the sum of the kept run times' squares"),
            "{err}"
        );
        // 1e160² = 1e320 is past f64 too, on whichever line it sits
        let text = format!("{}{}", line("0", "1"), line("1", "1e160"));
        let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("field 3 (1e160) overflows"), "{err}");
        // records alone are fine: each value is finite
        assert_eq!(parse_records(&text).unwrap().len(), 2);
        // a lone job has C² 0 whatever its size, and 1e150² is finite
        assert_eq!(
            parse_trace(&line("0", "1e200"), SwfFilter::default())
                .unwrap()
                .len(),
            1
        );
        let text = format!("{}{}", line("0", "1e150"), line("1", "1"));
        assert_eq!(parse_trace(&text, SwfFilter::default()).unwrap().len(), 2);
    }

    #[test]
    fn a_run_time_whose_reciprocal_overflows_is_an_error_at_its_line() {
        // 1 / 1e-310 is +inf: every slowdown of the run would be NaN
        let text = format!(
            "{}{}{}{}",
            line("0", "1e-310"),
            line("1", "1"),
            line("2", "5"),
            line("3", "7")
        );
        let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message
                .contains("field 3 (1e-310) is a run time whose reciprocal overflows"),
            "{err}"
        );
        // the smallest run time with a finite reciprocal is kept
        let text = format!("{}{}", line("0", "1"), line("1", "5.56268464626801e-309"));
        assert_eq!(parse_trace(&text, SwfFilter::default()).unwrap().len(), 2);
    }

    #[test]
    fn a_run_time_tiny_beside_the_total_is_an_error_at_its_line() {
        // 1e-300 has a finite reciprocal, but it may wait for up to the
        // 1e10 s ahead of it: (1e10 + 5) / 1e-300 is past f64
        let text = format!("{}{}{}", line("0", "1e10"), line("1", "1e-300"), line("2", "5"));
        let err = parse_trace(&text, SwfFilter::default()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("field 3 (1e-300) is so small beside the kept run times' total"),
            "{err}"
        );
        // records alone are fine: each value is finite
        assert_eq!(parse_records(&text).unwrap().len(), 3);
        // the first of equal smallest run times is named
        let text = format!("{}{}{}", line("0", "1e-300"), line("1", "1e10"), line("2", "1e-300"));
        assert_eq!(parse_trace(&text, SwfFilter::default()).unwrap_err().line, 1);
        // a lone tiny job bounds its own slowdown at 2
        assert_eq!(parse_trace(&line("0", "1e-300"), SwfFilter::default()).unwrap().len(), 1);
        // a total 1e10 times the smallest run time is fine
        let text = format!("{}{}", line("0", "1e10"), line("1", "1"));
        assert_eq!(parse_trace(&text, SwfFilter::default()).unwrap().len(), 2);
    }

    #[test]
    fn a_kept_non_positive_run_time_is_an_error_not_a_panic() {
        let text = format!("{}{}", line("0", "10"), line("1", "0"));
        let keep_all = SwfFilter {
            require_positive_runtime: false,
            ..SwfFilter::default()
        };
        let err = parse_trace(&text, keep_all).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("field 3 (0.0) is not a positive"),
            "{err}"
        );
        assert_eq!(parse_trace(&text, SwfFilter::default()).unwrap().len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = parse_trace("; nothing here\n", SwfFilter::default()).unwrap();
        assert!(t.is_empty());
    }
}
