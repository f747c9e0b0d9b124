#include "net/framing.h"

#include <array>
#include <cstring>
#include <stdexcept>

namespace emlio::net {

namespace {

/// The 8-byte frame header for a payload of `length` bytes.
std::array<std::uint8_t, kFrameHeaderBytes> frame_header(std::size_t length) {
  if (length > kMaxFrameBytes) throw std::runtime_error("framing: payload exceeds 1 GiB cap");
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  const std::uint32_t magic = kFrameMagic;
  const auto len = static_cast<std::uint32_t>(length);
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &len, 4);
  return header;
}

iovec to_iovec(std::span<const std::uint8_t> bytes) {
  return iovec{const_cast<std::uint8_t*>(bytes.data()), bytes.size()};
}

}  // namespace

std::size_t send_frame(TcpStream& stream, const SplicedPayload& message,
                       std::vector<iovec>& iov) {
  const auto header = frame_header(message.size());
  iov.clear();
  iov.push_back(to_iovec(header));
  message.for_each_piece(
      [&](std::span<const std::uint8_t> piece) { iov.push_back(to_iovec(piece)); });
  return stream.sendv_all(iov);
}

std::size_t send_frame(TcpStream& stream, std::span<const std::uint8_t> payload) {
  const auto header = frame_header(payload.size());
  iovec iov[2] = {to_iovec(header), to_iovec(payload)};
  return stream.sendv_all(iov);
}

std::uint32_t parse_frame_header(std::span<const std::uint8_t> header) {
  if (header.size() < kFrameHeaderBytes) throw std::runtime_error("framing: short header");
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::memcpy(&magic, header.data(), 4);
  std::memcpy(&length, header.data() + 4, 4);
  if (magic != kFrameMagic) throw std::runtime_error("framing: bad magic");
  if (length > kMaxFrameBytes) throw std::runtime_error("framing: oversized frame");
  return length;
}

std::optional<Payload> recv_frame(TcpStream& stream, BufferPool* pool) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!stream.recv_all(std::span<std::uint8_t>(header, kFrameHeaderBytes))) return std::nullopt;
  const std::uint32_t length = parse_frame_header(header);
  if (pool) {
    // No zero-fill: recv_all overwrites every byte, and a throw discards buf.
    ByteBuffer buf = pool->acquire_for_overwrite(length);
    if (length > 0 && !stream.recv_all(std::span<std::uint8_t>(buf.data(), length))) {
      throw std::runtime_error("framing: EOF before payload");
    }
    return pool->seal(std::move(buf));
  }
  std::vector<std::uint8_t> payload(length);
  if (length > 0 && !stream.recv_all(payload)) {
    throw std::runtime_error("framing: EOF before payload");
  }
  return Payload(std::move(payload));
}

}  // namespace emlio::net
