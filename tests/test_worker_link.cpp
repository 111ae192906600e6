// Pins how the spawned node binary is linked. xcp_node starts once per
// deal, so the build links it as static PIE (CMakeLists.txt,
// xcp_link_static_pie): position-independent (ELF type ET_DYN, so ASLR
// still applies) with no PT_INTERP (no dynamic loader runs at exec),
// keeping RELRO and a non-executable stack. A toolchain or build change
// that silently falls back to the dynamic link, or to a non-PIE plain
// -static link, fails here instead of only showing up as slower process
// start-up.

#include <gtest/gtest.h>
#include <link.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

struct LinkMode {
  std::string error;  // empty when the headers parsed
  unsigned type = ET_NONE;
  bool interp = false;
  bool relro = false;
  bool exec_stack = true;  // no PT_GNU_STACK means an executable stack
};

LinkMode read_link_mode(const std::string& path) {
  LinkMode m;
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  ElfW(Ehdr) eh;
  if (bytes.size() < sizeof eh) {
    m.error = "shorter than an ELF header";
    return m;
  }
  std::memcpy(&eh, bytes.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0) {
    m.error = "not an ELF file";
    return m;
  }
  if (eh.e_phentsize != sizeof(ElfW(Phdr)) ||
      eh.e_phoff + std::size_t{eh.e_phnum} * sizeof(ElfW(Phdr)) >
          bytes.size()) {
    m.error = "program header table out of bounds";
    return m;
  }
  m.type = eh.e_type;
  for (std::size_t i = 0; i < eh.e_phnum; ++i) {
    ElfW(Phdr) ph;
    std::memcpy(&ph, bytes.data() + eh.e_phoff + i * sizeof ph, sizeof ph);
    if (ph.p_type == PT_INTERP) m.interp = true;
    if (ph.p_type == PT_GNU_RELRO) m.relro = true;
    if (ph.p_type == PT_GNU_STACK) m.exec_stack = (ph.p_flags & PF_X) != 0;
  }
  return m;
}

/// The binary ctest names in XCP_NODE_BIN, else the one next to the test.
std::string node_path() {
  if (const char* p = std::getenv("XCP_NODE_BIN")) return p;
  return "./xcp_node";
}

TEST(WorkerLink, NodeIsStaticPie) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer builds link xcp_node dynamically: the "
                  "sanitizer runtimes need the dynamic loader";
#endif
  const std::string bin = node_path();
  SCOPED_TRACE(bin);
  ASSERT_EQ(::access(bin.c_str(), X_OK), 0) << "node binary not found";
  const LinkMode m = read_link_mode(bin);
  ASSERT_EQ(m.error, "");
  EXPECT_EQ(m.type, unsigned{ET_DYN}) << "not position-independent";
  EXPECT_FALSE(m.interp) << "has a dynamic loader (PT_INTERP)";
  EXPECT_TRUE(m.relro) << "no RELRO segment";
  EXPECT_FALSE(m.exec_stack) << "executable stack";
}

}  // namespace
