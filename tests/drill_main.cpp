// surfos_drill: prints the determinism drill's digest lines (tests/drill.hpp)
// after checking that pool sizes 1 and 4 agree.
//
//   surfos_drill                  print the golden file's text
//   surfos_drill --write <file>   write it to <file> (tests/golden/drill.txt)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "drill.hpp"

int main(int argc, char** argv) {
  const bool write = argc == 3 && std::strcmp(argv[1], "--write") == 0;
  if (argc != 1 && !write) {
    std::fprintf(stderr, "usage: %s [--write <file>]\n", argv[0]);
    return 2;
  }
  const auto serial = surfos::drill::run(1);
  const auto pooled = surfos::drill::run(4);
  if (serial != pooled) {
    std::fprintf(stderr, "drill: pool sizes 1 and 4 disagree\n");
    for (std::size_t i = 0; i < serial.size() && i < pooled.size(); ++i) {
      if (serial[i] == pooled[i]) continue;
      std::fprintf(stderr, "  1: %s\n  4: %s\n", serial[i].c_str(),
                   pooled[i].c_str());
    }
    return 1;
  }
  const std::string text = surfos::drill::golden_text(serial);
  if (!write) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(argv[2], std::ios::binary);
  out << text;
  return out ? 0 : 1;
}
