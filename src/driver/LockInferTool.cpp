//===--- LockInferTool.cpp - The lockinfer command-line tool -------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CLI driver: reads a program with atomic sections, infers locks, prints
/// the transformed program and per-section lock sets, and optionally runs
/// it in the checking interpreter — or, with --serve, becomes the
/// analysis daemon (see DESIGN.md "Service & incremental analysis").
///
///   lockinfer [options] file.atom
///   lockinfer --serve --socket /tmp/lockin.sock [--port N] [options]
///
/// Reports (--time-passes, --stats) go to stderr so stdout stays the
/// machine-readable program output; --metrics-out=- explicitly routes the
/// metrics JSON to stdout. --trace-out and --profile-locks arm the
/// observability layer before the pipeline runs and drain it at exit.
///
/// The actual analysis run lives in driver/Tool.h (runAnalysis), which is
/// re-entrant over an explicit context; this file is only the process
/// shell around it.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"
#include "driver/Tool.h"
#include "obs/LockProfiler.h"
#include "obs/Log.h"
#include "obs/Obs.h"
#include "obs/Trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace lockin;

int main(int Argc, char **Argv) {
  cli::CliOptions Cli;
  if (!cli::parseArgs(Argc, Argv, Cli)) {
    cli::usage(stderr);
    return 2;
  }
  if (Cli.Help) {
    cli::usage(stdout);
    return 0;
  }

  // Arm before compiling so pass spans and the run are both captured.
  // Tracing implies the profiler (the per-node wait spans come from it).
  if (!Cli.TraceOut.empty())
    obs::tracer().setEnabled(true);
  if (Cli.ProfileLocks || !Cli.TraceOut.empty())
    obs::lockProfiler().setEnabled(true);
  obs::LogLevel Level = obs::LogLevel::Info;
  obs::parseLogLevel(Cli.LogLevel, Level); // validated by the parser
  obs::log().setLevel(Level);

  if (Cli.Serve)
    // runServe drains the obs outputs itself, after the SIGTERM/shutdown
    // drain completes (the daemon never reaches the code below with a
    // still-armed registry worth snapshotting).
    return tool::runServe(Cli);

  int Rc;
  {
    std::ifstream In(Cli.Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Cli.Path.c_str());
      return 1;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();

    tool::ToolContext Ctx; // null obs = the process-wide singletons
    Rc = tool::runAnalysis(Cli, Buffer.str(), Ctx);
    std::fputs(Ctx.Out.c_str(), stdout);
    std::fputs(Ctx.Log.c_str(), stderr);
    if (Rc != 0)
      return Rc;
  }

  if (int DrainRc = tool::drainObsOutputs(Cli))
    return DrainRc;
  return Rc;
}
