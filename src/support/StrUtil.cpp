//===- StrUtil.cpp - Small string helpers ---------------------*- C++ -*-===//

#include "support/StrUtil.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace isopredict;

std::vector<std::string_view> isopredict::splitString(std::string_view Text,
                                                      char Sep) {
  std::vector<std::string_view> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view isopredict::trimString(std::string_view Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::optional<int64_t> isopredict::parseInt(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  std::string Buf(Text);
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Buf.c_str(), &End, 10);
  if (errno != 0 || End != Buf.c_str() + Buf.size())
    return std::nullopt;
  return static_cast<int64_t>(V);
}

std::optional<unsigned> isopredict::parseUnsigned(std::string_view Text,
                                                  unsigned Min, unsigned Max) {
  std::optional<int64_t> N = parseInt(Text);
  if (!N || *N < Min || *N > Max)
    return std::nullopt;
  return static_cast<unsigned>(*N);
}

bool isopredict::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

std::string isopredict::toLowerAscii(std::string_view Text) {
  std::string Out(Text);
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

std::string isopredict::formatString(const char *Fmt, ...) {
  // Single-pass fast path: almost every caller (SMT variable names, table
  // cells) fits a small stack buffer; only oversized results pay a second
  // vsnprintf.
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int Len = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Len > 0 && static_cast<size_t>(Len) < sizeof(Buf)) {
    Out.assign(Buf, static_cast<size_t>(Len));
  } else if (Len > 0) {
    Out.resize(static_cast<size_t>(Len));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args2);
  }
  va_end(Args2);
  return Out;
}
