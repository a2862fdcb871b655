"""Capacity of ``speller serve`` while a refresh runs, with the two senders
of ``service_refresh``.

    python3 qsbench/capacity.py --seed 12

Starts the server of a ``service_refresh`` run for the seed, with its
first refresh 5 s after start-up, and sends that run's requests back to
back from two threads, each waiting for its answer, until the refresh has
been swapped in and 2 s more have passed.  Prints the answers per second
before the refresh and while it ran.  RATE in ``service_refresh.py`` is
half the figure during the refresh.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_repo_sources  # noqa: E402

use_repo_sources()

import corpus  # noqa: E402
import service_refresh as sr  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sr.REFRESH_INTERVAL = 5.0
    run_dir = corpus.WORK / "runs" / f"capacity-{os.getpid()}"
    _, _, mix, config, port = sr.prepare(args.seed, run_dir)
    server = sr.Server(run_dir, config, False, "0")
    answered: list[float] = []
    stop = threading.Event()
    threads: list[threading.Thread] = []

    def sender():
        while not stop.is_set():
            sr.post(port, mix.request()["body"])
            answered.append(time.perf_counter())

    try:
        server.wait_ready(port)
        base_ts = sr.get_health(port, 10.0)[1]["snapshot_timestamp"]
        start = time.perf_counter()
        threads += [threading.Thread(target=sender) for _ in range(sr.SENDERS)]
        for t in threads:
            t.start()
        while sr.get_health(port, sr.REQUEST_TIMEOUT)[1]["snapshot_timestamp"] == base_ts:
            if time.perf_counter() - start > sr.MAX_EXTRA_S:
                raise RuntimeError("no refresh was swapped in")
            time.sleep(0.5)
        time.sleep(2.0)
    finally:
        stop.set()
        for t in threads:
            t.join()
        stats = server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    begin, end = (t / 1e9 for t in stats["refresh"][0])
    before = sum(1 for t in answered if start <= t < begin)
    during = sum(1 for t in answered if begin <= t < end)
    print(f"before the refresh: {before / (begin - start):.1f} answers/s "
          f"over {begin - start:.1f} s")
    print(f"during the refresh: {during / (end - begin):.1f} answers/s "
          f"over {end - begin:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
