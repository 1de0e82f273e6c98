"""One coupledwave CLI job in a fresh process, with the probe of probe.py.

    python3 perfbench/job.py --trace 0|1 --record PATH -- <coupledwave CLI arguments>

Runs ``coupledwave.cli.run_cli`` on the given arguments, exits with its
code, and writes the recorded stamps and spans to PATH as JSON after the
job returns.  The program is imported from PYTHONPATH, which the benchmark
points at the checkout's ``src``.
"""

import sys

import probe


def main(argv) -> int:
    if len(argv) < 5 or argv[0] != "--trace" or argv[2] != "--record" or argv[4] != "--":
        print("usage: job.py --trace 0|1 --record PATH -- CLI-ARGS", file=sys.stderr)
        return 64
    recorder = probe.Recorder(trace=argv[1] == "1")
    record_path, cli_args = argv[3], argv[5:]

    span = recorder.open_span("cli.import")
    from coupledwave import assembly, cli, mesh, mms, scheme, sparse_linalg

    recorder.close_span(span)
    recorder.install({
        "cli": cli, "mesh": mesh, "assembly": assembly,
        "scheme": scheme, "sparse_linalg": sparse_linalg, "mms": mms,
    })

    span = recorder.open_span("cli.run_cli")
    code = cli.run_cli(cli_args)
    recorder.close_span(span)
    recorder.dump(record_path, exit_code=code, peak_rss_kb=peak_rss_kb())
    return code


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM), in KiB.

    Not ``ru_maxrss``: Linux folds the parent's peak into a child started
    with vfork, so that figure can be the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
