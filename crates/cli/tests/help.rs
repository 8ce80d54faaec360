//! `casyn help` prints the subcommands and options on stdout and exits 0;
//! a command line that does not parse prints the usage line on stderr and
//! exits 1.

use std::process::Command;

fn casyn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_casyn")).args(args).output().unwrap()
}

#[test]
fn help_lists_subcommands_and_options_and_succeeds() {
    for flag in ["help", "--help"] {
        let out = casyn(&[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        let text = String::from_utf8(out.stdout).unwrap();
        for needle in ["casyn map <design", "casyn serve", "casyn top", "options:", "--ks <list>"] {
            assert!(text.contains(needle), "{flag}: no {needle:?} in\n{text}");
        }
        assert!(out.stderr.is_empty(), "{flag}: unexpected stderr");
    }
}

#[test]
fn parse_error_prints_usage_on_stderr_and_fails() {
    let out = casyn(&["map", "x.pla", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error: unknown option: --no-such-flag"), "{err}");
    assert!(err.contains("usage: casyn <map|"), "{err}");
}

#[test]
fn unknown_command_prints_usage_before_reading_any_file() {
    // the design path does not exist: a "cannot read" error would mean the
    // command ran as a flow before being rejected
    for command in ["mapp", "loadgen"] {
        let out = casyn(&[command, "no/such/design.pla"]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert!(out.stdout.is_empty(), "{command}: unexpected stdout");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("error: unknown command: {command}")), "{err}");
        assert!(err.contains("usage: casyn <map|"), "{err}");
        assert!(!err.contains("cannot read"), "{err}");
    }
}
