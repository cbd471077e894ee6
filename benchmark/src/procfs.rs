//! Process CPU time and peak memory from `/proc`, read without `libc`.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Linux fixes it at 100 on every architecture it supports today; reading
/// it properly needs `sysconf`, which would cost a `libc` dependency.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// numbered fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_vm_hwm_mib(&status).expect("/proc/self/status has a VmHWM line in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a) b (c)) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_vm_hwm_mib("Name:\tbench\n"), None);
        assert_eq!(parse_status_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mib() > 0.0);
    }
}
