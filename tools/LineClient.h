//===- LineClient.h - JSON-lines client connection to lpa_serve -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The one socket client the tools share (lpa_client, lpa_top): connects
// to lpa_serve's Unix socket, writes one request line, reads one
// response line.
//
//===----------------------------------------------------------------------===//

#ifndef LPA_TOOLS_LINECLIENT_H
#define LPA_TOOLS_LINECLIENT_H

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lpa {

class LineClient {
public:
  /// Connects to the socket at \p Path; ok() tells whether it worked.
  explicit LineClient(const std::string &Path) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      ::close(Fd);
      return;
    }
    // fdopen owns and closes its fd, so the read side gets a dup.
    In = ::fdopen(::dup(Fd), "r");
    Out = ::fdopen(Fd, "w");
  }

  ~LineClient() {
    if (In)
      std::fclose(In);
    if (Out)
      std::fclose(Out);
  }

  LineClient(const LineClient &) = delete;
  LineClient &operator=(const LineClient &) = delete;

  bool ok() const { return In && Out; }

  /// Sends \p Req as one line and reads one response line into \p Resp.
  /// \returns false when the server closed the connection instead.
  bool request(std::string_view Req, std::string &Resp) {
    std::fwrite(Req.data(), 1, Req.size(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
    Resp.clear();
    int C;
    while ((C = std::fgetc(In)) != EOF && C != '\n')
      Resp.push_back(static_cast<char>(C));
    return !(Resp.empty() && C == EOF);
  }

private:
  std::FILE *In = nullptr;
  std::FILE *Out = nullptr;
};

} // namespace lpa

#endif // LPA_TOOLS_LINECLIENT_H
