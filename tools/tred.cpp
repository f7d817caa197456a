// tred — the standalone timed-release daemon.
//
//   tred --pub server.pub --updates u1.bin,u2.bin
//        [--bind 127.0.0.1] [--port 7001] [--port-file F]
//        [--max-conns N] [--idle-timeout-ms N] [--metrics FILE]
//
// Serves pre-issued artifacts over the framed TCP protocol
// (src/daemon/frame.h). Deliberately has NO secret material and NO
// backend dispatch: per the paper's trust argument, the serving side is
// an untrusted byte shuffler — issuing happens elsewhere (tre_cli issue,
// or tre_cli serve for the all-in-one convenience path).
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port as decimal text once listening, which is what scripted
// callers (CI, bench harnesses) watch for readiness. SIGINT/SIGTERM shut
// the loop down cleanly; --metrics dumps the obs registry JSON on exit.
#include <cstdio>

#include "cli_common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tred --pub FILE [--updates F1,F2,...]\n"
               "            [--bind ADDR] [--port N] [--port-file FILE]\n"
               "            [--max-conns N] [--idle-timeout-ms N]\n"
               "            [--metrics FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tre;
  try {
    cli::Args args(argc, argv, 1);
    if (!args.has("pub")) return usage();

    auto store = std::make_shared<daemon::Store>();
    cli::load_store(*store, args.get("pub"),
                    cli::split_commas(args.get_or("updates", "")));
    cli::serve(store, args, "tred");
    cli::dump_metrics(args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tred: %s\n", e.what());
    return 1;
  }
}
