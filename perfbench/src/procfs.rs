//! Process CPU and memory, read from `/proc/<pid>`.

/// Clock ticks per second for `utime`/`stime`. Linux reports both in
/// `USER_HZ`, which is 100 on every architecture the kernel exposes to
/// user space.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MB from a `/proc/<pid>/status`
/// text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// User plus system CPU seconds from a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime field 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `VmHWM` of a live process, MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// CPU seconds a live process has used so far.
pub fn cpu_s(pid: u32) -> Option<f64> {
    parse_stat_cpu_s(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn stat_cpu_skips_a_command_with_spaces_and_parens() {
        let stat = "4242 (pm (worker) 1) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_s("no parens at all"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert!(cpu_s(pid).is_some_and(|s| s >= 0.0));
    }
}
