#pragma once

/// \file verbs.hpp
/// Entry points of the `gmd` verbs.  Each takes the arguments after
/// `gmd` (argv[0] is the verb's own name) and returns the exit status;
/// errors propagate as gmd::Error to the one handler in main.cpp.

namespace gmd::cli {

int configs(int argc, char** argv);
int trace(int argc, char** argv);
int memsim(int argc, char** argv);
int sweep(int argc, char** argv);
int worker(int argc, char** argv);
int pipeline(int argc, char** argv);
int explore(int argc, char** argv);
int learning_curve(int argc, char** argv);
int pareto(int argc, char** argv);
int study(int argc, char** argv);

}  // namespace gmd::cli
