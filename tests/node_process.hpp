// Helpers shared by the suites that spawn real xcp_node processes
// (test_transport, test_recovery): a scratch directory, the spawn itself
// with stdout/stderr captured to files, the exit-status reap and the
// line-oriented output readers.
#pragma once

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

extern char** environ;

namespace xcp {

/// A fresh directory under /tmp, removed with everything in it.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/xcp_node_test.XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() {
    // Best-effort cleanup of sockets, journals and capture files.
    std::string cmd = "rm -rf '" + path + "'";
    (void)std::system(cmd.c_str());
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

/// The xcp_node binary ctest names in XCP_NODE_BIN, else ./xcp_node, else
/// empty (the caller skips).
inline std::string node_bin_or_skip() {
  if (const char* env = std::getenv("XCP_NODE_BIN")) {
    if (::access(env, X_OK) == 0) return env;
  }
  if (::access("./xcp_node", X_OK) == 0) return "./xcp_node";
  return {};
}

/// Spawns `bin extra_args...` with stdout appended to `out_path` and
/// stderr to `out_path + ".err"`. Appending keeps a restarted node's
/// output after its first life's. Returns the pid, or -1.
inline pid_t spawn_node(const std::string& bin,
                        const std::vector<std::string>& extra_args,
                        const std::string& out_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   (out_path + ".err").c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> argv_s;
  argv_s.push_back(bin);
  argv_s.insert(argv_s.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, bin.c_str(), &actions, nullptr, argv.data(),
                    environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Blocks until `pid` ends: its exit code, 128 + the signal that killed
/// it, or -1.
inline int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The first line of `text` that starts with `prefix`, or empty.
inline std::string line_with_prefix(const std::string& text,
                                    const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

}  // namespace xcp
